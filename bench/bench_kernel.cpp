// Kernel throughput bench: drives the event kernel end to end (cheap
// heuristics under the f-risky policy, so the kernel itself dominates)
// over the largest registry scenarios — including the synth-stream-{med,
// hi} streaming scenarios at 1e5/1e6 jobs — and reports events/sec,
// dispatches/sec and per-row RSS growth. The event/dispatch/outcome
// counts are the kernel's own tallies, read from the run's RunMetrics
// (events popped, attempts dispatched, scheduler calls). They are pure
// functions of (scenario, jobs, seed) — bit-equal across machines — so
// the committed BENCH_kernel.json doubles as a determinism baseline:
// tools/benchgate hard-fails when the counts drift, warns on throughput
// (hardware-dependent), and applies the O(active)-memory advisory to the
// streaming rows (rss_delta_bytes / n_jobs must stay tiny). Each row runs
// kKernelRuns times: wall_ms and the rates are the median run's, the
// counters and rss_delta_bytes are the first run's (later runs reuse
// already-mapped pages, which would hide RSS growth), and a run whose
// counters differ from the first run's fails the bench (exit 1).
//
// A second "builds" array times the workload build layer alone
// (exp::make_workload of the raw-ETC synth scenarios, drained into a job
// vector, median of five builds) next to the built workload's fingerprint (workload_digest.hpp):
// the digest is exact and hard-gated, build_ms is advisory.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "workload_digest.hpp"

namespace {

using namespace gridsched;
using Clock = std::chrono::steady_clock;

/// Runs per kernel row; the reported wall time is their median.
constexpr int kKernelRuns = 3;

struct KernelRow {
  std::string scenario;
  std::size_t n_jobs = 0;
  // Deterministic (benchgate hard-compares these against the baseline).
  std::uint64_t events = 0;
  std::uint64_t dispatches = 0;
  std::uint64_t cycles = 0;
  std::uint64_t failures = 0;
  std::uint64_t interruptions = 0;
  double makespan = 0.0;
  // Hardware-dependent (benchgate warns only).
  double wall_ms = 0.0;
  double events_per_sec = 0.0;
  double dispatches_per_sec = 0.0;
  /// Resident-set growth across this row's run (current_rss_bytes delta;
  /// 0 when the allocator served the run from already-mapped pages). On
  /// streaming rows benchgate divides this by n_jobs — the O(active)
  /// memory advisory.
  std::uint64_t rss_delta_bytes = 0;
  /// Process-wide peak RSS after this row (monotone across rows).
  std::uint64_t peak_rss_bytes = 0;
};

/// A row holding only `run`'s deterministic counters.
KernelRow counters_of(const metrics::RunMetrics& run) {
  KernelRow row;
  row.n_jobs = run.n_jobs;
  row.events = run.events;
  row.dispatches = run.total_attempts;
  row.cycles = run.batch_invocations;
  row.failures = run.failure_events;
  row.interruptions = run.interruptions;
  row.makespan = run.makespan;
  return row;
}

bool same_counters(const KernelRow& a, const KernelRow& b) {
  return a.n_jobs == b.n_jobs && a.events == b.events &&
         a.dispatches == b.dispatches && a.cycles == b.cycles &&
         a.failures == b.failures && a.interruptions == b.interruptions &&
         a.makespan == b.makespan;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args =
      bench::parse_args(argc, argv, {"seed", "f", "quick", "out"});
  const util::Cli cli(argc, argv);
  const std::string out_path =
      cli.get_or("out", std::string("BENCH_kernel.json"));

  bench::print_banner(
      "Kernel event throughput (cheap heuristics, f-risky, largest registry "
      "scenarios + synth-stream-{med,hi})",
      "the event kernel sustains O(100k) events/sec under churn and "
      "failures, streams a million jobs in O(active) memory, and its event "
      "counts are bit-deterministic in (scenario, seed)");

  // The registry's biggest shapes, sized so the full (non --quick) run
  // finishes in CI minutes: the NAS batch testbed, the PSA stream, the
  // hardest synthetic heterogeneity class, the high-churn scenario (site
  // outages + revocations stress the revocation path), and the streaming
  // scenarios (1e5/1e6 jobs through the O(active) job-stream kernel).
  // The streaming rows run MCT instead of min-min: their batches hold
  // thousands of jobs, and the O(batch^2) min-min inner loop would time
  // the scheduler, not the kernel.
  struct Shape {
    const char* name;
    std::size_t jobs;
    std::size_t quick_jobs;
    const char* algo;
  };
  const std::vector<Shape> shapes = {
      {"nas", 4000, 1000, "min-min"},
      {"psa", 1000, 300, "min-min"},
      {"synth-inconsistent-hihi", 2000, 500, "min-min"},
      {"synth-churn-hi", 1000, 300, "min-min"},
      {"synth-stream-med", 100000, 20000, "mct"},
      {"synth-stream-hi", 1000000, 100000, "mct"}};

  std::vector<KernelRow> rows;
  util::Table table({"scenario", "jobs", "events", "dispatches", "cycles",
                     "makespan (s)", "wall (ms)", "events/s", "rss d (MiB)"});
  for (const Shape& shape : shapes) {
    const std::size_t jobs = args.quick ? shape.quick_jobs : shape.jobs;
    const exp::Scenario scenario = exp::make_scenario(shape.name, jobs);
    const exp::AlgorithmSpec spec = exp::heuristic_spec(
        shape.algo, security::RiskPolicy::f_risky(args.f));
    KernelRow row;
    std::vector<double> wall_runs;
    for (int rep = 0; rep < kKernelRuns; ++rep) {
      const std::uint64_t rss_before = obs::current_rss_bytes();
      const auto start = Clock::now();
      const metrics::RunMetrics run = exp::run_once(scenario, spec, args.seed);
      wall_runs.push_back(
          std::chrono::duration<double>(Clock::now() - start).count());
      const std::uint64_t rss_after = obs::current_rss_bytes();

      const KernelRow counted = counters_of(run);
      if (rep == 0) {
        row = counted;
        row.rss_delta_bytes =
            rss_after > rss_before ? rss_after - rss_before : 0;
      } else if (!same_counters(counted, row)) {
        std::fprintf(stderr,
                     "FAIL: %s run %d of %d counted differently from run 1 "
                     "(events %" PRIu64 " vs %" PRIu64 ", dispatches %" PRIu64
                     " vs %" PRIu64 ")\n",
                     shape.name, rep + 1, kKernelRuns, counted.events,
                     row.events, counted.dispatches, row.dispatches);
        return 1;
      }
    }
    std::sort(wall_runs.begin(), wall_runs.end());
    const double wall_seconds = wall_runs[kKernelRuns / 2];
    row.scenario = shape.name;
    row.wall_ms = wall_seconds * 1e3;
    if (wall_seconds > 0.0) {
      row.events_per_sec = static_cast<double>(row.events) / wall_seconds;
      row.dispatches_per_sec =
          static_cast<double>(row.dispatches) / wall_seconds;
    }
    row.peak_rss_bytes = obs::peak_rss_bytes();
    rows.push_back(row);
    table.row()
        .cell(row.scenario)
        .cell(row.n_jobs)
        .cell(row.events)
        .cell(row.dispatches)
        .cell(row.cycles)
        .cell(row.makespan, 0)
        .cell(row.wall_ms, 1)
        .cell(row.events_per_sec, 0)
        .cell(static_cast<double>(row.rss_delta_bytes) / (1024.0 * 1024.0), 1);
    std::fflush(stdout);
  }
  std::printf("%s", table.str().c_str());

  // Workload build layer: the perfbench churn-backlog materialisation
  // shape and the kernel table's raw-ETC scenario.
  const std::vector<Shape> build_shapes = {
      {"synth-churn-hi", 50000, 10000, ""},
      {"synth-inconsistent-hihi", 2000, 500, ""}};
  std::vector<std::string> build_rows;
  util::Table build_table({"scenario", "jobs", "build (ms)", "digest"});
  for (const Shape& shape : build_shapes) {
    const std::size_t jobs = args.quick ? shape.quick_jobs : shape.jobs;
    const exp::Scenario scenario = exp::make_scenario(shape.name, jobs);
    std::vector<double> build_ms;
    std::uint64_t digest = 0;
    for (int rep = 0; rep < 5; ++rep) {
      const auto start = Clock::now();
      const workload::Workload built = exp::make_workload(scenario, args.seed);
      build_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - start)
              .count());
      digest = bench::workload_digest(built);
    }
    std::sort(build_ms.begin(), build_ms.end());
    char hex[19];
    std::snprintf(hex, sizeof(hex), "0x%016" PRIx64, digest);
    build_rows.push_back(bench::JsonObject()
                             .text("scenario", shape.name)
                             .integer("n_jobs", jobs)
                             .num("build_ms", build_ms[2], 3)
                             .text("digest", hex)
                             .str());
    build_table.row().cell(shape.name).cell(jobs).cell(build_ms[2], 2).cell(
        hex);
  }
  std::printf("%s", build_table.str().c_str());
  std::printf("peak RSS: %.1f MiB\n", bench::peak_rss_mib());

  std::vector<std::string> scenario_rows;
  scenario_rows.reserve(rows.size());
  for (const KernelRow& row : rows) {
    scenario_rows.push_back(bench::JsonObject()
                                .text("scenario", row.scenario)
                                .integer("n_jobs", row.n_jobs)
                                .integer("events", row.events)
                                .integer("dispatches", row.dispatches)
                                .integer("cycles", row.cycles)
                                .integer("failures", row.failures)
                                .integer("interruptions", row.interruptions)
                                .num("makespan", row.makespan)
                                .num("wall_ms", row.wall_ms, 3)
                                .num("events_per_sec", row.events_per_sec, 1)
                                .num("dispatches_per_sec",
                                     row.dispatches_per_sec, 1)
                                .integer("rss_delta_bytes",
                                         row.rss_delta_bytes)
                                .integer("peak_rss_bytes", row.peak_rss_bytes)
                                .str());
  }
  const bench::JsonObject document =
      bench::JsonObject()
          .text("bench", "kernel")
          .integer("seed", args.seed)
          .boolean("quick", args.quick)
          .raw("scenarios", bench::json_array(scenario_rows))
          .raw("builds", bench::json_array(build_rows))
          .integer("peak_rss_bytes", obs::peak_rss_bytes());
  try {
    util::write_file(out_path, document.document());
  } catch (const std::runtime_error& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
