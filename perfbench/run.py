#!/usr/bin/env python3
"""End-to-end benchmark of the snipr fleet and batch entry points.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench_e2e (perfbench/CMakeLists.txt, Release) into
.bench_build/perfbench, runs it for S seconds on the named workload and
prints, as the last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (untraced runs plus three
fresh processes for the peak resident set); --trace 1 reports the
per-layer ledger of the traced phase-split replay. A human-readable
table goes to stderr and a full artifact (samples, quartiles, CV,
machine context) to .bench_build/results/. Any digest or counter
mismatch makes `correct` false and the exit code 1. See
perfbench/README.md.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("highway-rh", "urban-chaos", "relay-collect", "paper-grid")

# Metric name -> unit. A metric is the median of perfbench_e2e's sample
# series of that name, or else its single deterministic value.
END_TO_END = {
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

# Sampled with the end-to-end metrics but not gated: the 4-thread wall
# time and the CPU times before host-speed normalisation. On a shared
# host they spread past any allowed bound (perfbench/README.md).
REPORTED = {
    "wall_s": "s",
    "cpu_raw_s": "s",
    "setup_raw_s": "s",
}

PER_LAYER = {
    "contact.build_s": "s",
    "contact.vehicles": "count",
    "contact.contacts": "count",
    "core.sweep_build_s": "s",
    "core.sched_build_s": "s",
    "core.wakeups": "count",
    "core.probes": "count",
    "core.detections": "count",
    "core.detect_per_probe": "ratio",
    "deploy.simulate_s": "s",
    "core.batch_s": "s",
    "deploy.ns_per_wakeup": "ns",
    "core.decide_ns": "ns",
    "core.decide_samples": "count",
    "core.epoch_starts": "count",
    "core.epoch_start_s": "s",
    "core.resets": "count",
    "core.restores": "count",
    "core.checkpoints": "count",
    "fault.crashes": "count",
    "fault.detections_lost": "count",
    "fault.spurious_detections": "count",
    "fault.reconvergence_epochs": "count",
    "deploy.collect_s": "s",
    "deploy.sessions": "count",
    "deploy.pickups": "count",
    "deploy.deliveries": "count",
    "deploy.delivery_ratio": "ratio",
    "fault.handoffs_retried": "count",
    "fault.handoffs_abandoned": "count",
    "core.batch_runs": "count",
    "core.schedule_builds": "count",
    "core.runs_per_schedule_build": "ratio",
    "deploy.json_s": "s",
    "deploy.stream_s": "s",
    "bench.untraced_wall_s": "s",
    "bench.traced_wall_s": "s",
    "bench.trace_overhead_s": "s",
    "bench.phase_gap_s": "s",
    "bench.timer_ns": "ns",
}

RSS_SAMPLES = 3
DEADLINE_S = 170.0  # the whole command must end within 180 s

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RESULTS_DIR = ROOT / ".bench_build" / "results"
EXE = BUILD_DIR / "perfbench_e2e"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then an incremental build (a no-op when current)."""
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", "4"])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            fail(f"build step failed: {' '.join(cmd)}")


def measure(args, mode, timeout):
    """Run perfbench_e2e in one mode; returns its parsed report."""
    cmd = [str(EXE), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{mode} run exceeded {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{mode} run printed no report (exit {proc.returncode})")
    report = json.loads(lines[-1])
    if proc.returncode not in (0, 1):
        fail(f"{mode} run exited {proc.returncode}")
    return report


def spread(values):
    """Median, quartiles, CV and count of one sample series."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        mean = statistics.fmean(values)
        cv = statistics.stdev(values) / mean if mean else 0.0
    else:
        q1 = q3 = med
        cv = 0.0
    return {"median": med, "q1": q1, "q3": q3, "cv": cv, "n": len(values)}


def commit():
    try:
        proc = subprocess.run(["git", f"--git-dir={ROOT / '.git'}",
                               "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main():
    started = time.monotonic()
    load_at_start = os.getloadavg()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 1 or args.seconds <= 0:
        fail("--seed and --seconds must be positive")

    build()
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    build_s = time.monotonic() - started
    budget = DEADLINE_S + build_s

    def remaining():
        return max(1.0, budget - (time.monotonic() - started))

    report = measure(args, "trace" if args.trace else "e2e", remaining())
    attempted = int(report["attempted"])
    failed = int(report["failed"])
    series = {k: v for k, v in report["samples"].items() if v}

    if not args.trace:
        rss = []
        for _ in range(RSS_SAMPLES):
            # A fresh process per sample: the peak of one run, not of many.
            probe = measure(args, "once", remaining())
            rss.append(probe["values"]["peak_rss_mib"])
            attempted += int(probe["attempted"])
            failed += int(probe["failed"])
            if probe["digest"] != report["digest"]:
                failed += 1
                print("perfbench: peak-RSS run disagrees with the timed runs",
                      file=sys.stderr)
        series["peak_rss_mib"] = rss
        wanted = END_TO_END
    else:
        wanted = PER_LAYER

    stats = {name: spread(values) for name, values in series.items()}
    values = dict(report["values"])
    metrics = {}
    for name, unit in wanted.items():
        if name in stats:
            value = stats[name]["median"]
        elif name in values:
            value = values[name]
        else:
            fail(f"perfbench_e2e reported no value for {name}")
        metrics[name] = {"value": value, "unit": unit}

    correct = failed == 0
    artifact = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "epochs": report["epochs"],
        "digest": report["digest"],
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted if attempted else 1.0,
        "metrics": metrics,
        "spread": stats,
        "values": values,
        "context": dict(report["context"],
                        nproc=os.cpu_count(),
                        commit=commit(),
                        loadavg_at_start=list(load_at_start),
                        machine=platform.machine(),
                        python=platform.python_version()),
    }
    path = RESULTS_DIR / (f"{args.workload}-seed{args.seed}"
                          f"-trace{args.trace}.json")
    path.write_text(json.dumps(artifact, indent=1, sort_keys=True) + "\n")

    print(f"{args.workload} seed {args.seed}: digest {report['digest']}, "
          f"{failed}/{attempted} runs failed; artifact {path}",
          file=sys.stderr)
    table = [(name, m["value"], m["unit"]) for name, m in metrics.items()]
    if not args.trace:
        table += [(f"{name} (not gated)", stats[name]["median"], unit)
                  for name, unit in REPORTED.items()]
    for name, value, unit in table:
        s = stats.get(name.split()[0])
        detail = (f"  [q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, "
                  f"cv {s['cv']:.3f}, n {s['n']}]") if s else ""
        print(f"  {name:32s} {value:>16.6g} {unit:6s}{detail}",
              file=sys.stderr)

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
