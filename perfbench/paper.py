"""``optimize_paper``: ``Plumber.optimize`` on the paper's workloads.

Each op is ``Plumber(machine).optimize(naive_config(w.build(scale)))``
with the default :class:`OptimizeSpec` (simulate backend, 2 iterations,
3 s trace window), cycling through the eight ``END_TO_END_WORKLOADS``
on Setup C with datasets and host memory scaled as in
:func:`repro.analysis.experiments.end_to_end`. The seed orders each
cycle. The latency metrics come from each workload's fastest call of
the window, scaled to the reference host speed by a probe loop run
around every call (see :meth:`OptimizePaper.samples`).

After the timed window every workload's plan is measured under the
Figure 10 protocol (``run_pipeline`` with a ``ModelConsumer`` at the
model's rate, 8 s after 3 s of warm-up) against the naive
configuration. ``OptimizationResult.speedup`` is not used: it compares
3 s trace windows, which on slow-filling pipelines measure fill.
"""

from __future__ import annotations

import random
import resource
import statistics
import time

from spans import (END, NAME, START, Tracer, TracedBackend, TracedPass,
                   per_name, self_times)

#: Wall seconds of one cycle through the eight workloads on the host the
#: benchmark was written on (Intel Xeon, 2 vCPUs). The op count of a run
#: is a whole number of cycles fixed by ``--seconds``, not by how fast
#: the program runs, so every run of a given length does the same work.
CYCLE_SECONDS = 7.5

#: Wall seconds of :func:`probe_host` on the host the benchmark was
#: written on (Intel Xeon, 2 vCPUs) at its fastest. Latencies are
#: reported at this speed.
PROBE_REFERENCE_SECONDS = 0.0104

#: Figure 10 protocol, as in ``repro.analysis.experiments.end_to_end``.
PROTOCOL_DURATION = 8.0
PROTOCOL_WARMUP = 3.0
DEFAULT_SCALE = 0.004


def probe_host() -> float:
    """Wall seconds of a fixed pure-Python loop that shares no code
    with the program: how fast the host runs this process right now."""
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    return time.perf_counter() - start


class OptimizePaper:
    def __init__(self, seed: int, seconds: int) -> None:
        self.seed = seed
        self.cycles = max(1, round(seconds / CYCLE_SECONDS))
        self.inputs = {}
        self.plans = {}  # workload -> plan JSON of its first op
        self.op_plans = []  # (workload, plan JSON) per op, in order
        self.peak_rss_mb = None  # after the untraced window

    # -- set-up --------------------------------------------------------
    def setup(self) -> None:
        from repro.analysis.experiments import E2E_SCALES
        from repro.baselines.naive import naive_config
        from repro.core.plumber import Plumber
        from repro.host import setup_c
        from repro.workloads import END_TO_END_WORKLOADS, get_workload

        machine = setup_c()
        for name, workload in END_TO_END_WORKLOADS.items():
            scale = E2E_SCALES.get(name, DEFAULT_SCALE)
            scaled = machine.with_memory(machine.memory_bytes * scale)
            self.inputs[name] = (workload, scale, scaled,
                                 naive_config(workload.build(scale=scale)))
        # Warm-up on a pipeline outside the measured set: the
        # microbenchmark Mask-RCNN build at a smaller scale.
        warm = naive_config(get_workload("rcnn").build(scale=0.001))
        Plumber(machine.with_memory(machine.memory_bytes * 0.001)).optimize(
            warm)
        rng = random.Random(self.seed)
        names = sorted(self.inputs)
        self.order = []
        for _ in range(self.cycles):
            rng.shuffle(names)
            self.order.extend(names)

    def prime(self, trace: bool) -> None:
        """Nothing to prime: every op computes from scratch."""

    # -- the timed window ----------------------------------------------
    def run(self, tracer: Tracer = None) -> dict:
        from repro.core.plumber import Plumber
        from repro.core.passes import resolve_pass
        from repro.core.spec import DEFAULT_PASSES, OptimizeSpec
        from repro.graph.serialize import pipeline_to_json
        from repro.runtime.backends import resolve_backend

        spec = None
        if tracer is not None:
            spec = OptimizeSpec(
                backend=TracedBackend(resolve_backend("simulate"), tracer),
                passes=tuple(TracedPass(resolve_pass(p), tracer)
                             for p in DEFAULT_PASSES),
            )
        ops = []
        probes = []
        plans = []
        for i, name in enumerate(self.order):
            _, _, machine, pipeline = self.inputs[name]
            probe = probe_host()
            if tracer is None:
                start = time.perf_counter()
                result = Plumber(machine).optimize(pipeline)
                ops.append((start, time.perf_counter()))
            else:
                op = tracer.open("core.optimize", op=i)
                plumber = Plumber(machine, spec=spec)
                plumber.analyze = tracer.wrap("core.analyze",
                                              plumber.analyze)
                result = plumber.optimize(pipeline)
                tracer.close(op)
                ops.append((op[START], op[END]))
            probes.append((probe + probe_host()) / 2)
            plans.append((name, pipeline_to_json(result.pipeline)))
        self.op_plans.extend(plans)
        if tracer is None:
            # Before check()'s protocol runs, so only the optimize calls
            # (and the set-up before them) count.
            self.peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return {"ops": ops, "probes": probes}

    def samples(self, window: dict):
        """Each workload's fastest call of the window, at the reference
        host speed.

        The host's speed swings by up to 2x within seconds and drifts
        for minutes, and every call here is CPU-bound. Each call's wall
        time is scaled by ``PROBE_REFERENCE_SECONDS`` over the mean of
        the probe loops run just before and after it, and the fastest
        scaled call of each workload is kept (as ``timeit`` keeps the
        minimum). The latency metrics are order statistics of these
        eight values and the throughput is eight calls over their sum.
        """
        best = {}
        for name, (start, end), probe in zip(self.order, window["ops"],
                                             window["probes"]):
            scaled = (end - start) * PROBE_REFERENCE_SECONDS / probe
            best[name] = min(best.get(name, scaled), scaled)
        latencies = [best[name] for name in sorted(best)]
        walls = [end - start for start, end in window["ops"]]
        note = (f"each workload's fastest of {self.cycles} calls at the "
                f"reference speed ({1e3 * PROBE_REFERENCE_SECONDS:.1f} ms "
                f"probe), "
                + " ".join(f"{name}={1e3 * best[name]:.1f}ms"
                           for name in sorted(best))
                + f"; wall clock: median call "
                f"{1e3 * statistics.median(walls):.1f} ms, median probe "
                f"{1e3 * statistics.median(window['probes']):.2f} ms")
        return latencies, sum(latencies), note

    # -- checks and results --------------------------------------------
    def check(self) -> dict:
        """Per-op output checks plus the plan-speedup geomean."""
        from repro.graph.serialize import pipeline_from_json
        from repro.runtime.executor import ModelConsumer, run_pipeline
        from repro.baselines.naive import naive_config

        for name, plan in self.op_plans:
            self.plans.setdefault(name, plan)
        speedups = {}
        for name, (workload, scale, machine, _) in self.inputs.items():
            consumer = ModelConsumer(workload.model_step_seconds)

            def measure(pipe):
                return run_pipeline(
                    pipe, machine, duration=PROTOCOL_DURATION,
                    warmup=PROTOCOL_WARMUP, trace=False, consumer=consumer,
                ).examples_per_second

            naive = measure(naive_config(workload.build(scale=scale),
                                         keep_prefetch=False))
            optimized = measure(pipeline_from_json(self.plans[name]))
            speedups[name] = optimized / naive
        failed = [
            i for i, (name, plan) in enumerate(self.op_plans)
            # the same plan on every repetition, never slower than naive
            if plan != self.plans[name] or not speedups[name] >= 1.0
        ]
        return {
            "failed_ops": failed,
            "plan_speedup_geomean":
                statistics.geometric_mean(speedups.values()),
            "plan_speedups": speedups,
            "peak_rss_mb": self.peak_rss_mb,
        }

    def layer_metrics(self, tracer: Tracer, window: dict) -> dict:
        n_ops = len(window["ops"])
        selfs = self_times(tracer.spans)
        rows = per_name(tracer.spans, selfs)

        def self_ms(name):
            return rows.get(name, {}).get("self_s", 0.0) * 1e3 / n_ops

        ops = [s for s in tracer.spans if s[NAME] == "core.optimize"]
        op_ms = sum(s[END] - s[START] for s in ops) * 1e3 / n_ops
        return {
            "runtime.trace_ms": self_ms("runtime.trace"),
            "runtime.traces":
                rows.get("runtime.trace", {}).get("calls", 0) / n_ops,
            "core.analyze_ms": self_ms("core.analyze"),
            "core.plan_ms": self_ms("core.plan"),
            "graph.rewrite_ms": self_ms("graph.rewrite"),
            "core.driver_self_ms": self_ms("core.optimize"),
            "trace.op_ms": op_ms,
            "trace.coverage_pct":
                100.0 * (op_ms - self_ms("core.optimize")) / op_ms,
        }

    def finish(self) -> None:
        pass

    def close(self) -> None:
        pass

