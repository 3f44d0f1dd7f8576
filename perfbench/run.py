#!/usr/bin/env python3
"""Build the benchmark, run one workload in fresh
processes, print one JSON result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark is built from source with cargo
into $CARGO_TARGET_DIR (default: .bench_build). With --trace 0 the workload
runs untraced and the result carries the end-to-end metrics; with --trace 1
it runs traced and the result carries the per-layer metrics (fleet_scale
sweeps N in {10^3, 10^4, 10^5}, each N in its own process). The last line
of stdout is the JSON result; everything else goes to stderr. See
perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("paper_figures", "realbytes_transfer", "fleet_scale")
FLEET_TRACE_SIZES = (1_000, 10_000, 100_000)
# Per-process limit; a process that outlives it is killed and the run fails.
PROCESS_TIMEOUT_S = 170
# glibc's malloc raises its mmap and trim thresholds the first time a large
# mmapped block is freed, and only then stops returning freed heap tops to
# the kernel. When that happens depends on the run's allocation history, so
# an unpinned process switches between a "cold" regime (freed clips are
# trimmed and re-faulted, paper_figures ~45% slower) and a "warm" one at a
# random point. Benchmark processes run pinned at the values the dynamic
# scheme converges to (mmap threshold at its 32 MiB ceiling, trim threshold
# twice that), so every run measures the same steady state.
MALLOC_TUNABLES = ("glibc.malloc.mmap_threshold=33554432:"
                   "glibc.malloc.trim_threshold=67108864")
# realbytes_transfer runs on one core. Its transfers hand every packet
# between 3-4 threads; spread over two cores of a shared virtual machine
# those threads wait on cross-core wake-ups (1.2 cores busy on average), and
# the wake-up latency of the host moves throughput by up to 30% from run to
# run. On one core the handoffs are plain context switches, the core stays
# busy and the run measures the work of the real-bytes layers.
SINGLE_CORE_WORKLOADS = ("realbytes_transfer",)
HERE = os.path.dirname(os.path.abspath(__file__))


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Build the benchmark binary; return its path."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    result = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        fail(f"build failed (exit {result.returncode})")
    binary = os.path.join(target, "release", "perfbench")
    if not os.path.isfile(binary):
        fail(f"build produced no {binary}")
    return binary


def pin_to_one_core():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_process(binary, args, single_core):
    """Run one benchmark process to completion; return its JSON result."""
    try:
        result = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                                stderr=sys.stderr, text=True,
                                timeout=PROCESS_TIMEOUT_S,
                                env=dict(os.environ, GLIBC_TUNABLES=MALLOC_TUNABLES),
                                preexec_fn=pin_to_one_core if single_core else None)
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(args)}: exceeded {PROCESS_TIMEOUT_S} s")
    if result.returncode != 0:
        fail(f"{' '.join(args)}: exit {result.returncode}")
    lines = result.stdout.strip().splitlines()
    if not lines:
        fail(f"{' '.join(args)}: no result")
    return json.loads(lines[-1])


def merge_fleet(results):
    """Merge the per-N traced fleet processes into one result: each per-N
    metric from its own process, trace.* summed, the rest from the largest N.
    """
    largest = results[FLEET_TRACE_SIZES[-1]]
    metrics = dict(largest["metrics"])
    for n, res in results.items():
        suffix = f".n1e{len(str(n)) - 1}"
        for name, m in res["metrics"].items():
            if name.endswith(suffix):
                metrics[name] = m
    for name in metrics:
        if name.startswith("trace.") and name != "trace.cells":
            total = sum(r["metrics"][name]["value"] for r in results.values())
            metrics[name] = {"value": total, "unit": metrics[name]["unit"]}
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    if a.seed < 0 or a.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binary = build()
    common = ["--workload", a.workload, "--seed", str(a.seed)]
    single = a.workload in SINGLE_CORE_WORKLOADS
    if not a.trace:
        result = run_process(binary, ["run"] + common + ["--seconds", str(a.seconds)], single)
    elif a.workload == "fleet_scale":
        result = merge_fleet({n: run_process(binary, ["trace"] + common + ["--n", str(n)], single)
                              for n in FLEET_TRACE_SIZES})
    else:
        result = run_process(binary, ["trace"] + common, single)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
