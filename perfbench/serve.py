"""``serve_cold``: the fleet service round trip, every job a miss.

Each op is one ``OptimizationClient.optimize_fleet`` call, from submit
to rehydrated report, against a daemon in its own process (see
``daemon_main.py``), from one client over one keep-alive connection in a
closed loop. Every op sends a fresh fleet of 2 distinct pipelines, so
every job is a cache miss: the daemon traces analytically, solves the
LP, runs the passes and writes the store.

The batch's compute (about 15 ms) stays under the client's first 50 ms
poll step even when the host runs at half speed. A 4-job fleet (about
30 ms) crossed the step on a fifth of its batches in slow stretches,
which tripled their latency, so the numbers followed the host's speed
more than the program's.

Fleets come from ``generate_pipeline_fleet`` with fleet seeds drawn
from the benchmark seed; the warm-up fleets are drawn first and never
measured.
"""

from __future__ import annotations

import json
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import END, NAME, OP, PARENT, START, Tracer
import spans as spanlib

HERE = Path(__file__).resolve().parent

#: Batches per second on the host the benchmark was written on (Intel
#: Xeon, 2 vCPUs, client and daemon pinned to separate CPUs). The op
#: count of a run is ``--seconds`` times this, fixed before the run
#: starts, so a faster program does the same work in less time rather
#: than more work in the same time.
NOMINAL_RATE = 17.0
FLEET_JOBS = 2
WARMUP_FLEETS = 2
HEALTHZ_PROBES = 200


def _fleet_seeds(seed: int, count: int):
    return random.Random(seed).sample(range(1, 2 ** 31), count)


class ServeCold:
    def __init__(self, seed: int, seconds: int, cpus) -> None:
        self.seed = seed
        self.ops = max(1, round(seconds * NOMINAL_RATE))
        self.client_cpu = min(cpus)
        others = sorted(set(cpus) - {self.client_cpu})
        # With one CPU the daemon shares it; with two or more it never
        # runs on the load generator's CPU.
        self.daemon_cpu = others[0] if others else -1
        self.proc = None
        self.url = None
        self.peak_rss_mb = None
        self.daemon_spans = []
        self.reports = []  # one report per op, in order

    # -- the daemon process ---------------------------------------------
    def _start_daemon(self, trace: bool) -> None:
        from repro.service import OptimizationClient

        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "daemon_main.py"),
             "--cpu", str(self.daemon_cpu), "--trace", str(int(trace))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait(timeout=60)
            raise RuntimeError("daemon exited before reporting its URL")
        self.url = json.loads(line)["url"]
        with OptimizationClient(self.url) as client:
            client.check_ready(timeout=30)

    def _stop_daemon(self) -> None:
        if self.proc is None:
            return
        proc, self.proc = self.proc, None
        try:
            proc.stdin.close()
            tail = proc.stdout.read()
            proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or not tail.strip():
            raise RuntimeError(f"daemon exited with {proc.returncode}")
        final = json.loads(tail.strip().splitlines()[-1])
        self.peak_rss_mb = final["peak_rss_mb"]
        self.daemon_spans = final.get("spans", [])

    # -- set-up --------------------------------------------------------
    def setup(self) -> None:
        from repro.core.spec import OptimizeSpec
        from repro.fleet.generator import FleetConfig, generate_pipeline_fleet
        from repro.graph.signature import structural_signature
        from repro.service import OptimizationClient

        from daemon_main import SERVE_SPEC_FIELDS

        self.spec = OptimizeSpec(**SERVE_SPEC_FIELDS)
        config = FleetConfig(optimize_spec=self.spec)
        wanted = WARMUP_FLEETS + self.ops
        fleets = []
        seen = set()
        # Seeds are drawn in one stream; a fleet that repeats a pipeline
        # signature already drawn is skipped, so every job is a distinct
        # optimization and no warm-up result is ever reused.
        for fleet_seed in _fleet_seeds(self.seed, 2 * wanted):
            fleet = generate_pipeline_fleet(
                num_jobs=FLEET_JOBS, distinct=FLEET_JOBS, seed=fleet_seed,
                config=config)
            sigs = {structural_signature(j.pipeline) for j in fleet}
            if sigs & seen or len(sigs) < FLEET_JOBS:
                continue
            seen |= sigs
            fleets.append(fleet)
            if len(fleets) == wanted:
                break
        self.warmup_fleets = fleets[:WARMUP_FLEETS]
        self.fleets = fleets[WARMUP_FLEETS:]
        self._start_daemon(trace=False)
        with OptimizationClient(self.url) as client:
            client.optimize_fleet(self.warmup_fleets[0])

    def prime(self, trace: bool) -> None:
        """Warm up the daemon the window runs against (a fresh, traced
        one for the traced window)."""
        from repro.service import OptimizationClient

        if trace:
            self._stop_daemon()
            self._start_daemon(trace=True)
        with OptimizationClient(self.url) as client:
            client.optimize_fleet(self.warmup_fleets[1])

    # -- the timed window ----------------------------------------------
    def run(self, tracer: Tracer = None) -> dict:
        from repro.service import OptimizationClient

        client = OptimizationClient(self.url)
        if tracer is not None:
            restore = _instrument_client(client, tracer)
        ops = []
        reports = []
        try:
            for i, fleet in enumerate(self.fleets):
                if tracer is None:
                    start = time.perf_counter()
                    report = client.optimize_fleet(fleet)
                    ops.append((start, time.perf_counter()))
                else:
                    op = tracer.open("client.optimize_fleet", op=i)
                    report = client.optimize_fleet(fleet)
                    tracer.close(op)
                    ops.append((op[START], op[END]))
                reports.append(report)
            if tracer is not None:
                for _ in range(HEALTHZ_PROBES):
                    client.health()
            polls = sum(
                s["value"] for s in client.metrics.as_dict()
                ["repro_client_requests_total"]["samples"]
                if s["labels"].get("route") == "jobs")
        finally:
            if tracer is not None:
                restore()
            client.close()
        self.reports.extend(reports)
        return {"ops": ops,
                "client_polls": polls / len(self.fleets),
                "hit_ratio": _hit_ratio(reports)}

    def samples(self, window: dict):
        """Every op's latency, and the window's wall time."""
        ops = window["ops"]
        return ([end - start for start, end in ops],
                ops[-1][1] - ops[0][0], "one per op")

    # -- checks and results --------------------------------------------
    def check(self) -> dict:
        """Compare every op's report with an in-process
        ``BatchOptimizer`` run of the same fleet and spec."""
        from repro.service import BatchOptimizer

        reference = [
            [(j.name, j.pipeline_json) for j in
             BatchOptimizer(executor="serial", spec=self.spec)
             .optimize_fleet(fleet).jobs]
            for fleet in self.fleets
        ]
        failed = []
        speedups = []
        # A traced run has two windows over the same fleets.
        for op, report in enumerate(self.reports):
            index = op % len(self.fleets)
            ok = ([(j.name, j.pipeline_json) for j in report.jobs]
                  == reference[index]
                  and report.cache_misses == FLEET_JOBS
                  and report.cache_hits == 0)
            if not ok:
                failed.append(op)
            speedups.extend(j.speedup for j in report.jobs)
        # A job whose baseline trace saw no throughput has no speedup.
        defined = [s for s in speedups if s > 0]
        return {
            "failed_ops": failed,
            "plan_speedup_geomean": statistics.geometric_mean(defined),
            "undefined_speedups": len(speedups) - len(defined),
            "peak_rss_mb": self.peak_rss_mb,
        }

    def finish(self) -> None:
        """Stop the daemon; its exit line carries peak RSS and spans."""
        self._stop_daemon()

    def layer_metrics(self, tracer: Tracer, window: dict) -> dict:
        return serve_layer_metrics(tracer.spans, self.daemon_spans,
                                   len(window["ops"]),
                                   window["hit_ratio"])

    def close(self) -> None:
        if self.proc is not None:
            self.proc.kill()
            self.proc.wait()
            self.proc = None


def _hit_ratio(reports) -> float:
    hits = misses = 0
    for r in reports:
        hits += r.cache_hits
        misses += r.cache_misses
    return hits / (hits + misses)


def _instrument_client(client, tracer: Tracer):
    """Wrap the client's calls from outside. Returns an undo function
    for the module-level wraps."""
    from repro.service import client as client_module

    originals = (client_module.fleet_to_body, client_module.report_from_dict)
    client_module.fleet_to_body = tracer.wrap("client.encode",
                                              originals[0])
    client_module.report_from_dict = tracer.wrap("client.rehydrate",
                                                 originals[1])
    for method in ("submit", "wait", "status", "report", "raw_report"):
        setattr(client, method,
                tracer.wrap(f"client.{method}", getattr(client, method)))
    request = client._request

    def traced_request(method, path, *args, **kwargs):
        span = tracer.open("http.request:" + spanlib.route(path))
        try:
            return request(method, path, *args, **kwargs)
        finally:
            tracer.close(span)

    client._request = traced_request
    sleep = client._sleep

    def traced_sleep(seconds):
        span = tracer.open("client.poll_sleep")
        try:
            sleep(seconds)
        finally:
            tracer.close(span)

    client._sleep = traced_sleep

    def restore():
        (client_module.fleet_to_body,
         client_module.report_from_dict) = originals

    return restore


def serve_layer_metrics(client_spans, daemon_spans, n_ops: int,
                        hit_ratio: float) -> dict:
    """Per-op layer split of a traced serve window.

    The daemon's request handler spans are grafted under the client
    request that carried them; the batch it ran in the background is
    attached to the op it served by time (one client, closed loop).
    """
    ops = [s for s in client_spans if s[NAME] == "client.optimize_fleet"]
    requests = [s for s in client_spans if s[NAME].startswith("http.request")]
    handles = [s for s in daemon_spans if s[NAME].startswith("daemon.handle")]
    # Daemon spans carry no op; each takes the client op it served.
    # Requests from outside the window (priming, health probes) serve no
    # op.
    spanlib.graft(handles, requests)
    # Daemon spans below a handler inherit its op; background ones are
    # placed by time.
    by_id = {s[0]: s for s in client_spans + daemon_spans}
    spanlib.assign_ops([s for s in daemon_spans if s[PARENT] is None
                        and not s[NAME].startswith("daemon.handle")], ops)
    for s in daemon_spans:
        root = s
        while root[PARENT] is not None and root[PARENT] in by_id:
            root = by_id[root[PARENT]]
        s[OP] = root[OP]
    # The dispatch wait of the n-th accepted batch ends when the
    # dispatcher starts the n-th optimize_fleet call.
    submits = sorted((s for s in daemon_spans if s[NAME] == "daemon.submit"),
                     key=lambda s: s[START])
    runs = sorted((s for s in daemon_spans
                   if s[NAME] == "batch.optimize_fleet"),
                  key=lambda s: s[START])
    dispatch_wait = sum(max(0.0, r[START] - s[END])
                        for s, r in zip(submits, runs) if r[OP] is not None)

    measured = [s for s in client_spans + daemon_spans if s[OP] is not None]
    selfs = spanlib.self_times(measured)
    rows = spanlib.per_name(measured, selfs)

    def total(prefix):
        return sum(row["self_s"] for name, row in rows.items()
                   if name == prefix or name.startswith(prefix + ":"))

    def per_op_ms(*names):
        return sum(total(n) for n in names) * 1e3 / n_ops

    def calls(name):
        return sum(row["calls"] for n, row in rows.items()
                   if n == name or n.startswith(name + ":"))

    # Wire time of one request: the client's round trip minus the
    # daemon's handler time. The healthz probes after the window give
    # the floor.
    handled = {h[PARENT]: h[END] - h[START] for h in handles}

    def per_request_ms(route):
        wire = [r[END] - r[START] - handled.get(r[0], 0.0)
                for r in requests if r[NAME] == "http.request:" + route]
        return 1e3 * sum(wire) / len(wire) if wire else 0.0

    op_ms = sum(s[END] - s[START] for s in ops) * 1e3 / n_ops
    root_self = per_op_ms("client.optimize_fleet")
    return {
        "client.encode_ms": per_op_ms("client.encode"),
        "client.submit_ms": per_op_ms("client.submit"),
        "client.status_ms": per_op_ms("client.status"),
        "client.polls": calls("client.status") / n_ops,
        "client.poll_sleep_ms": per_op_ms("client.poll_sleep"),
        "client.report_ms": per_op_ms("client.report", "client.raw_report"),
        "client.rehydrate_ms": per_op_ms("client.rehydrate"),
        "client.driver_self_ms": per_op_ms("client.optimize_fleet",
                                           "client.wait"),
        "http.overhead_ms": per_op_ms("http.request"),
        "http.optimize_req_ms": per_request_ms("optimize"),
        "http.jobs_req_ms": per_request_ms("jobs"),
        "http.report_req_ms": per_request_ms("report"),
        "http.healthz_req_ms": per_request_ms("healthz"),
        "daemon.handle_ms": per_op_ms("daemon.handle"),
        "daemon.submit_ms": per_op_ms("daemon.submit"),
        "daemon.status_ms": per_op_ms("daemon.job_status"),
        "daemon.report_json_ms": per_op_ms("daemon.report_json"),
        "daemon.dispatch_wait_ms": dispatch_wait * 1e3 / n_ops,
        "batch.optimize_fleet_ms": per_op_ms("batch.optimize_fleet"),
        "batch.hit_ratio": hit_ratio,
        "store.get_ms": per_op_ms("store.get"),
        "store.put_ms": per_op_ms("store.put"),
        "store.gets": calls("store.get") / n_ops,
        "store.puts": calls("store.put") / n_ops,
        "runtime.trace_ms": per_op_ms("runtime.trace"),
        "runtime.traces": calls("runtime.trace") / n_ops,
        "core.plan_ms": per_op_ms("core.plan"),
        "graph.rewrite_ms": per_op_ms("graph.rewrite"),
        "trace.op_ms": op_ms,
        "trace.coverage_pct": 100.0 * (op_ms - root_self) / op_ms,
    }
