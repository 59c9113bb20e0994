#!/usr/bin/env python3
"""gridsched benchmark: builds the harness, runs one workload, prints metrics.

Usage (from the repository root):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run simulates the workload's inputs, generated from --seed (input 0 is
the seed itself), round robin, in as many fresh harness processes
("instances") as fit in --seconds, one after another, after one untimed
warm-up instance. Each instance is one single-threaded exp::run_once call
(serial GA fitness), so it measures the program rather than the host's
thread scheduler, and its peak RSS is its own.

Host timings are normalized to a reference host speed. The shared host
runs in phases up to 2x slower that last seconds to minutes (NOTES.md).
A fixed sort program that does not link the library (perfbench_calibrate)
runs before the first instance and after every instance; each instance's
host times are scaled by REFERENCE_S over the geometric mean of the two
calibration times around it, so a slow phase that slows the instance
slows its calibrations too and largely cancels. No change to the program
can move the calibration.

A metric is the median across inputs of its value over each input's
instances (per input the median of the scaled instance values, or the
percentile of the pooled scaled batch samples). The median keeps unusual
inputs from moving the result while they are fewer than half: a run draws
eight inputs, and churn-backlog, where one input in five or more has a
churn storm that multiplies its batch times, draws 24 ("inputs" in
workloads.json).

--trace 0 prints the end-to-end metrics. --trace 1 runs untraced and traced
instances in pairs and prints the per-layer metrics: host times of the
traced instances, deterministic counts, and the tracing overhead (the
jobs/s the traced instances lose against the untraced ones). The full
layer report, including the layer shares of the run span and the GA and
churn times that are zero by construction on some workloads, is printed on
the line before the result and written to perfbench/out/.

Correctness: every instance must finish with every submitted job completed
and repeat its input's deterministic fingerprint; at the default seed input
0's fingerprint must equal the pin in workloads.json; traced runs must
reproduce the untraced fingerprint and their layer times must add up to the
run span. A failed check prints the result with "correct": false and exits
with code 1.

The last line of stdout is the result object; BENCHMARK.json (the repository
root) names the metrics and their units.
"""

import argparse
import fcntl
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = BENCH_DIR / "build"
OUT_DIR = BENCH_DIR / "out"
HARNESS = BUILD_DIR / "perfbench_harness"
CALIBRATE = BUILD_DIR / "perfbench_calibrate"
INSTANCE_TIMEOUT_S = 120
# Nominal perfbench_calibrate time (near its fast level on a 4-vCPU Xeon @
# 2.1 GHz VM); scaled host times read as if every calibration took this.
REFERENCE_S = 0.110
INPUTS_PER_RUN = 8  # unless the workload sets "inputs"
MASK64 = (1 << 64) - 1
# Shares of the traced run span; the first four partition it, core (GA
# evolve) is the part of sched spent in the GA.
LAYER_SHARES = (("setup", "exp.setup_ms"), ("sched", "sched.busy_ms"),
                ("sim", "sim.self_ms"), ("finalize", "metrics.finalize_ms"),
                ("core", "core.evolve_ms"))


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure (once) and build the harness; serialized by a file lock."""
    BUILD_DIR.mkdir(exist_ok=True)
    log_path = BUILD_DIR / "build.log"
    with open(BUILD_DIR / ".lock", "w") as lock, open(log_path, "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not any((BUILD_DIR / f).exists() for f in ("build.ninja",
                                                       "Makefile")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", *generator, "-S", str(BENCH_DIR), "-B",
                          str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                      "perfbench_harness", "perfbench_calibrate", "-j", "4"])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              stdin=subprocess.DEVNULL).returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-25:]
                fail("build failed:\n" + "\n".join(tail))


def input_seed(seed, k):
    """Seed of a run's input k: the run seed itself for k == 0, otherwise a
    SplitMix64 mix of (seed, k), kept within the harness's int64 range."""
    if k == 0:
        return seed
    z = ((seed ^ (k * 0xD1B54A32D192ED03)) + 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & ((1 << 63) - 1)


def run_instance(workload, seed, traced, spans_out=None):
    cmd = [str(HARNESS), f"--scenario={workload['scenario']}",
           f"--jobs={workload['jobs']}", f"--algo={workload['algo']}",
           f"--batch-interval={workload.get('batch_interval', 0)}",
           f"--arrival-rate={workload.get('arrival_rate', 0)}",
           f"--seed={seed}"]
    if traced:
        cmd.append("--trace")
    if spans_out is not None:
        cmd.append(f"--spans-out={spans_out}")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              stdin=subprocess.DEVNULL,
                              timeout=INSTANCE_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
    except (subprocess.TimeoutExpired, json.JSONDecodeError) as error:
        result = {"error": str(error)}
    result.setdefault("status", "error")
    result.setdefault("n_jobs", workload["jobs"])
    result["seed"] = seed
    return result


def calibrate():
    """Wall seconds of one perfbench_calibrate run."""
    try:
        proc = subprocess.run([str(CALIBRATE)], capture_output=True, text=True,
                              stdin=subprocess.DEVNULL,
                              timeout=INSTANCE_TIMEOUT_S)
        return float(proc.stdout.split()[0])
    except (OSError, subprocess.TimeoutExpired, ValueError,
            IndexError) as error:
        fail(f"calibration failed: {error}")


class Calibrated:
    """Runs instances with a calibration after each one, so every instance
    lies between two calibrations, and gives each result the scale factor
    REFERENCE_S / sqrt(before x after) of its host times."""

    def __init__(self):
        self.last = calibrate()
        self.seconds = []

    def run(self, workload, seed, traced, spans_out=None):
        result = run_instance(workload, seed, traced, spans_out)
        after = calibrate()
        result["scale"] = REFERENCE_S / math.sqrt(self.last * after)
        self.seconds.append(after)
        self.last = after
        return result


def percentile(values, q):
    """Linear-interpolated q-quantile (0 <= q <= 1) of a non-empty list."""
    values = sorted(values)
    rank = q * (len(values) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (rank - lo)


def jobs_per_s(result):
    return result["n_jobs"] / (result["wall_s"] * result["scale"])


def by_input(results):
    """The results grouped by input."""
    groups = {}
    for result in results:
        groups.setdefault(result["seed"], []).append(result)
    return list(groups.values())


def across_inputs(results, statistic):
    """Median across inputs of `statistic` over each input's instances."""
    return statistics.median(map(statistic, by_input(results)))


def median_of(key):
    """Statistic: the median of a per-instance value."""
    return lambda group: statistics.median(map(key, group))


def batch_percentile(q):
    """Statistic: the q-quantile of the scaled batch samples pooled over an
    input's instances."""
    return lambda group: percentile(
        [ms * result["scale"] for result in group
         for ms in result["batch_ms"]], q)


def is_host_time(name):
    """Layer-report values that are host times (scaled like the end-to-end
    ones); the rest are sizes and shares."""
    return name.endswith(("_ms", "_ms_p50")) or ".ns_per_" in name


class Checker:
    """Correctness gate and failure accounting. Operations are submitted
    jobs; the jobs of an instance that threw or left jobs unfinished are
    failed operations. Simulated security failures and churn revocations are
    modelled outcomes, reported as sim.failures / sim.revocations."""

    def __init__(self, pin_seed, pin):
        self.pin_seed = pin_seed
        self.pin = pin
        self.fingerprints = {}
        self.counts = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, result):
        n_jobs = result["n_jobs"]
        self.attempted += n_jobs
        if result["status"] != "ok":
            self.failed += n_jobs
            self.problems.append(result.get("error", "no result"))
            return False
        if result["completed"] != n_jobs:
            self.failed += n_jobs
            self.problems.append(f"{n_jobs - result['completed']} of "
                                 f"{n_jobs} jobs unfinished")
        fingerprint = result["fingerprint"]
        first = self.fingerprints.setdefault(result["seed"], fingerprint)
        if fingerprint != first:
            self.problems.append(f"input {result['seed']}: fingerprint "
                                 f"{fingerprint} differs from {first}")
        if (result["seed"] == self.pin_seed and self.pin is not None
                and fingerprint != self.pin):
            self.problems.append(f"fingerprint {fingerprint} != pinned "
                                 f"{self.pin}")
        return True

    def check_traced(self, traced):
        first = self.counts.setdefault(traced["seed"], traced["counts"])
        if traced["counts"] != first:
            self.problems.append(f"input {traced['seed']}: traced "
                                 f"deterministic counts differ between "
                                 f"repeats")
        run_ms, parts_ms = traced["span_run_ms"], traced["span_parts_ms"]
        if abs(parts_ms - run_ms) > 1e-6 * run_ms:
            self.problems.append(f"setup + sched + sim + finalize = "
                                 f"{parts_ms} ms != run span {run_ms} ms")


def end_to_end(results, calibrations):
    samples = [sum(len(r["batch_ms"]) for r in group)
               for group in by_input(results)]
    print(f"{len(results)} instances over {len(samples)} inputs, "
          f"{min(samples)}-{max(samples)} batch samples per input; "
          f"calibration median {1e3 * statistics.median(calibrations):.2f} ms "
          f"(reference {1e3 * REFERENCE_S:.2f} ms)")
    return {
        "jobs_per_s": across_inputs(results, median_of(jobs_per_s)),
        "batch_p50_ms": across_inputs(results, batch_percentile(0.5)),
        "batch_p90_ms": across_inputs(results, batch_percentile(0.9)),
        "setup_s": across_inputs(results, median_of(
            lambda r: r["setup_s"] * r["scale"])),
        # The upper quartile across inputs: on mct-wide a third of the
        # inputs peak near 17 MiB and the rest near 29 MiB, so a median
        # across them flips; on churn-backlog a storm input peaks at up to
        # 42 MiB against 23, so the largest flips.
        "peak_rss_mb": percentile(
            [median_of(lambda r: r["peak_rss_mb"])(group)
             for group in by_input(results)], 0.75),
    }


def layer_report(pairs, counts):
    """Host times (scaled and aggregated like the end-to-end metrics), the
    layer shares of the run span, the deterministic counts of input 0, and
    the tracing overhead."""
    traced = [t for _, t in pairs]
    report = {}
    for name in traced[0]["times"]:
        scaled = is_host_time(name)
        report[name] = across_inputs(traced, median_of(
            lambda r, name=name, scaled=scaled:
            r["times"][name] * (r["scale"] if scaled else 1.0)))
    for layer, name in LAYER_SHARES:
        report[f"share.{layer}"] = across_inputs(traced, median_of(
            lambda r, name=name: r["times"][name] / r["span_run_ms"]))
    report.update(counts)
    untraced_jobs_per_s = across_inputs([u for u, _ in pairs],
                                        median_of(jobs_per_s))
    report["trace.overhead_pct"] = 100.0 * (
        1.0 - across_inputs(traced, median_of(jobs_per_s)) /
        untraced_jobs_per_s)
    print(f"{len(pairs)} untraced/traced pairs")
    return report


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 <= args.seed < (1 << 63):
        fail("--seed must be in [0, 2^63)")

    config = json.loads((BENCH_DIR / "workloads.json").read_text())
    contract = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    workloads = {w["name"]: w for w in config["workloads"]}
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r} (valid: "
             f"{', '.join(workloads)})")
    workload = workloads[args.workload]
    inputs = workload.get("inputs", INPUTS_PER_RUN)
    build()

    checker = Checker(config["default_seed"], workload.get("pin"))
    # The warm-up instance pays the cold start (binary and page cache) and
    # is checked but not timed.
    checker.check(run_instance(workload, args.seed, traced=False))
    calibrated = Calibrated()
    results, pairs = [], []
    started = time.monotonic()
    durations = []
    while not checker.problems and (
            not durations or time.monotonic() - started +
            statistics.median(durations) <= args.seconds):
        begin = time.monotonic()
        seed = input_seed(args.seed, len(durations) % inputs)
        untraced = calibrated.run(workload, seed, traced=False)
        if not checker.check(untraced):
            break
        if args.trace:
            spans_out = None
            if not pairs:
                OUT_DIR.mkdir(exist_ok=True)
                spans_out = OUT_DIR / f"{args.workload}-{args.seed}.trace.json"
            traced = calibrated.run(workload, seed, traced=True,
                                    spans_out=spans_out)
            if not checker.check(traced):
                break
            checker.check_traced(traced)
            pairs.append((untraced, traced))
        else:
            results.append(untraced)
        durations.append(time.monotonic() - begin)

    correct = not checker.problems
    metrics = {}
    if correct:
        kind = "per_layer" if args.trace else "end_to_end"
        if args.trace:
            values = layer_report(pairs, checker.counts[args.seed])
            print(json.dumps(values))
            (OUT_DIR / f"{args.workload}-{args.seed}.layers.json").write_text(
                json.dumps(values, indent=1) + "\n")
        else:
            values = end_to_end(results, calibrated.seconds)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in contract[kind]}
    for problem in checker.problems[:10]:
        print(f"CHECK FAILED ({args.workload}, seed {args.seed}): {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
