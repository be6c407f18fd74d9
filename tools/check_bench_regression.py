#!/usr/bin/env python3
"""Compare a fresh bench artifact against the checked-in baseline.

Understands both artifact shapes this repo produces:

* google-benchmark JSON ("benchmarks" array, as in BENCH_hotpath.json);
* sweep artifacts with a "rows" array and an optional "mega" object
  (BENCH_deployment_scale.json, BENCH_multihop_scale.json). Rows are
  keyed by their identity fields (nodes / node_store_bytes / epochs) so
  baseline and current rows pair up even if the sweep order changes.

* regret artifacts with a "rows" array keyed by (scenario, policy)
  (BENCH_regret.json from bench_regret).

Repetitions of one benchmark (or one sweep row) are reduced to their
median before comparison. Four counter kinds are compared, selected by
name:

* ``*_per_sec`` — throughput; more than --tolerance BELOW the baseline
  is a regression. Improvements are reported but never fail.
* ``*_per_event`` — steady-state allocation counters; a baseline of zero
  that becomes nonzero fails (the zero-allocation hot path was lost).
* ``*_mib`` — memory footprints; more than --tolerance ABOVE the
  baseline is a regression (the bounded-memory plateau was lost).
* ``*regret*`` — regret vs the clairvoyant benchmark; more than
  max(--tolerance * |baseline|, 1.0) ABOVE the baseline is a regression
  (a learner/exploration change broke censored recovery). Less regret is
  an improvement and never fails; the absolute 1 s slack keeps near-zero
  baselines from turning noise into a gate.

A baseline that yields no comparable counters at all is an error, not a
pass: a silently empty comparison is how a gate rots. Exit status: 0 =
within tolerance, 1 = regression, 2 = usage/IO error or empty baseline.
The CI jobs running this are non-blocking (continue-on-error) — the gate
exists to flag drift in the PR log, not to brick the build on a noisy
shared runner.
"""

import argparse
import json
import statistics
import sys

# Fields that identify a sweep row across runs (order-independent).
IDENTITY_KEYS = ("scenario", "policy", "nodes", "node_store_bytes", "epochs")

# Regret counters below this baseline magnitude gate on an absolute 1 s
# slack instead of a fraction of nothing.
REGRET_ABS_SLACK_S = 1.0


def counter_kind(key):
    """'rate', 'alloc', 'mem', 'regret', or None for non-counter fields."""
    if key.endswith("_per_sec"):
        return "rate"
    if key.endswith("_per_event"):
        return "alloc"
    if key.endswith("_mib"):
        return "mem"
    if "regret" in key:
        return "regret"
    return None


def row_counters(row):
    return {
        key: float(value)
        for key, value in row.items()
        if counter_kind(key) is not None and isinstance(value, (int, float))
    }


def row_name(prefix, row):
    parts = [prefix]
    parts.extend(
        f"{key}:{row[key]:g}" if isinstance(row[key], float)
        else f"{key}:{row[key]}"
        for key in IDENTITY_KEYS
        if key in row
    )
    return "/".join(parts)


def load_counters(path):
    """Map benchmark/row name -> {counter: value} for every counter kind.

    Repetition runs (--benchmark_repetitions=N emits N "iteration"
    entries under the same name) are reduced to their median, so the gate
    sees every repetition rather than silently keeping only the last one,
    and one outlier repetition (a descheduled run on a shared machine)
    cannot move it the way it moves a mean.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as err:
        print(f"error: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)
    samples = {}

    def accumulate(name, counters):
        if not counters:
            return
        acc = samples.setdefault(name, {})
        for key, value in counters.items():
            acc.setdefault(key, []).append(value)

    for bench in doc.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        accumulate(bench["name"], row_counters(bench))
    for row in doc.get("rows", []):
        accumulate(row_name("rows", row), row_counters(row))
    mega = doc.get("mega")
    if isinstance(mega, dict):
        accumulate(row_name("mega", mega), row_counters(mega))

    return {
        name: {key: statistics.median(values) for key, values in acc.items()}
        for name, acc in samples.items()
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="checked-in baseline JSON")
    parser.add_argument("current", help="freshly measured JSON")
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="allowed fractional drift (default 0.15)")
    args = parser.parse_args()

    baseline = load_counters(args.baseline)
    current = load_counters(args.current)
    if not baseline:
        print(f"error: baseline {args.baseline} contains no comparable "
              "counters — the gate would pass vacuously", file=sys.stderr)
        return 2
    if not current:
        print(f"error: current run {args.current} contains no comparable "
              "counters", file=sys.stderr)
        return 2

    failures = []
    for name, base_counters in sorted(baseline.items()):
        cur_counters = current.get(name)
        if cur_counters is None:
            failures.append(f"{name}: missing from current run")
            continue
        for counter, base in sorted(base_counters.items()):
            cur = cur_counters.get(counter)
            if cur is None:
                failures.append(f"{name}/{counter}: missing from current run")
                continue
            kind = counter_kind(counter)
            if kind == "alloc":
                if base == 0.0 and cur > 0.0:
                    failures.append(
                        f"{name}/{counter}: baseline 0, now {cur:g} — "
                        "steady-state allocations reintroduced")
                continue
            if kind == "regret":
                # Regret gates upward on an absolute scale: negative and
                # near-zero baselines are legitimate (a policy may beat
                # the mean clairvoyant trace on lucky draws), so a ratio
                # test would divide by ~0.
                slack = max(args.tolerance * abs(base), REGRET_ABS_SLACK_S)
                verdict = "ok"
                if cur > base + slack:
                    verdict = "REGRESSION"
                    failures.append(
                        f"{name}/{counter}: regret {base:.3g} -> {cur:.3g} s "
                        f"(+{cur - base:.3g} s) — censored-feedback "
                        "recovery got worse")
                elif cur < base - slack:
                    verdict = "improved"
                print(f"{name}/{counter}: {base:.3g} -> {cur:.3g} s "
                      f"({cur - base:+.3g} s) {verdict}")
                continue
            if base <= 0.0:
                continue
            ratio = cur / base
            verdict = "ok"
            if kind == "mem":
                if ratio > 1.0 + args.tolerance:
                    verdict = "REGRESSION"
                    failures.append(
                        f"{name}/{counter}: {base:.3g} -> {cur:.3g} MiB "
                        f"({(ratio - 1.0) * 100.0:+.1f}%) — memory grew")
                elif ratio < 1.0 - args.tolerance:
                    verdict = "improved"
            else:  # rate
                if ratio < 1.0 - args.tolerance:
                    verdict = "REGRESSION"
                    failures.append(
                        f"{name}/{counter}: {base:.3g} -> {cur:.3g} "
                        f"({(ratio - 1.0) * 100.0:+.1f}%)")
                elif ratio > 1.0 + args.tolerance:
                    verdict = "improved"
            print(f"{name}/{counter}: {base:.3g} -> {cur:.3g} "
                  f"({(ratio - 1.0) * 100.0:+.1f}%) {verdict}")

    if failures:
        print(f"\n{len(failures)} regression(s) beyond "
              f"{args.tolerance * 100:.0f}% tolerance:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\nall counters within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
