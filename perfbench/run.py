"""The repository's benchmark: ``Plumber.optimize`` and the fleet service.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve_cold --seed 1 --seconds 30 --trace 0

Workloads (see README.md in this directory for what each measures and
which numbers a change to each layer should move):

* ``optimize_paper`` -- ``Plumber.optimize`` on the paper's eight
  end-to-end workloads.
* ``serve_cold`` -- client -> HTTP -> daemon round trips in which every
  job misses the result store, so the daemon traces, solves and
  rewrites.

With ``--trace 0`` the run measures the end-to-end metrics. With
``--trace 1`` it measures one untraced window and then one traced
window, and reports the per-layer split of the traced window and the
tracing overhead. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

The op count of a run is fixed by ``--seconds`` and the workload, so
every run of the same length does the same work. Outputs are checked
after the timed window; an op whose output is wrong counts as failed.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402 - the set-up clock starts before imports
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-ups per run: this process's own plus fresh processes, so each one
#: pays imports and first calls; ``setup_s`` is their median.
SETUPS = 3


def host_fingerprint() -> dict:
    import numpy
    import scipy

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": model,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def make_workload(name: str, seed: int, seconds: int, cpus):
    if name == "optimize_paper":
        from paper import OptimizePaper
        return OptimizePaper(seed, seconds)
    from serve import ServeCold
    return ServeCold(seed, seconds, cpus)


def _extra_setup(args, cpus) -> float:
    """One set-up in a fresh process on the same CPUs; returns its
    seconds."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--setup-cpus", ",".join(map(str, cpus))],
        cwd=str(ROOT), stdout=subprocess.PIPE, text=True, timeout=170,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def main() -> int:
    # Workloads, metrics and units are declared once, in BENCHMARK.json.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Set up only, on these CPUs, and print the seconds it took.
    parser.add_argument("--setup-cpus", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}; run "
              "from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.setup_cpus:
        cpus = sorted(int(c) for c in args.setup_cpus.split(","))
    else:
        cpus = sorted(os.sched_getaffinity(0))
    # The load generator keeps the lowest CPU; a serve daemon gets
    # another one (see serve.py).
    os.sched_setaffinity(0, {cpus[0]})
    workload = make_workload(args.workload, args.seed, args.seconds, cpus)
    try:
        workload.setup()
        setup_s = time.perf_counter() - PROCESS_START
        if args.setup_cpus:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return measure(args, spec, workload, cpus, setup_s)
    except Exception:  # noqa: BLE001 - report, clean up, exit non-zero
        traceback.print_exc()
        return 1
    finally:
        workload.close()


def measure(args, spec: dict, workload, cpus, setup_s: float) -> int:
    import stats
    from spans import Tracer

    why = {w["name"]: w["why"] for w in spec["workloads"]}
    end_to_end_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    # Each workload fills the layers it exercises; the others read 0.
    per_layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}

    setups = [setup_s]
    if not args.trace:
        setups += [_extra_setup(args, cpus) for _ in range(SETUPS - 1)]
    workload.prime(trace=False)
    untraced = workload.run()
    traced = tracer = None
    if args.trace:
        tracer = Tracer()
        workload.prime(trace=True)
        traced = workload.run(tracer)
    workload.finish()
    checked = workload.check()

    windows = [w for w in (untraced, traced) if w is not None]
    attempted = sum(len(w["ops"]) for w in windows)
    failed = len(checked["failed_ops"])
    latencies, elapsed, sample_note = workload.samples(untraced)
    tail_value, tail_label, beyond = stats.tail(latencies)
    end_to_end = {
        "setup_s": statistics.median(setups),
        "latency_ms_p50": 1e3 * statistics.median(latencies),
        "latency_ms_tail": 1e3 * tail_value,
        "throughput_per_s": len(latencies) / elapsed,
        "plan_speedup_geomean": checked["plan_speedup_geomean"],
        "peak_rss_mb": checked["peak_rss_mb"],
    }

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("host " + json.dumps(host_fingerprint(), sort_keys=True))
    print(f"why {why[args.workload]}")
    print(f"ops attempted={attempted} failed={failed}")
    for name, unit in end_to_end_units.items():
        print(f"  {name} = {end_to_end[name]:.6g} {unit}")
    print(f"  latency samples: {sample_note}")
    print(f"  latency_ms_tail is {tail_label} of {len(latencies)} samples "
          f"({beyond} beyond it)")
    print(f"  setup_s runs: " + " ".join(f"{s:.3f}" for s in setups))
    if "client_polls" in untraced:
        print(f"  client.polls = {untraced['client_polls']:.4f} per op "
              "(status requests; 1 means no op waited out a poll sleep)")
    if "undefined_speedups" in checked:
        print(f"  jobs without a speedup (no baseline throughput): "
              f"{checked['undefined_speedups']}")
    for name, value in sorted(checked.get("plan_speedups", {}).items()):
        print(f"  plan speedup {name} = {value:.4f} x")

    if args.trace:
        layers = workload.layer_metrics(tracer, traced)
        untraced_ms = 1e3 * statistics.fmean(
            end - start for start, end in untraced["ops"])
        layers["trace.overhead_pct"] = \
            100.0 * (layers["trace.op_ms"] / untraced_ms - 1.0)
        unknown = set(layers) - set(per_layer_units)
        if unknown:
            raise KeyError(f"unlisted per-layer metrics {sorted(unknown)}")
        metrics = {name: {"value": layers.get(name, 0.0), "unit": unit}
                   for name, unit in per_layer_units.items()}
        print("per-layer (traced window, per op):")
        for name, m in metrics.items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit}
                   for name, unit in end_to_end_units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
