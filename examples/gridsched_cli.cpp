// gridsched_cli — the full simulator as a command-line tool.
//
// Subcommands:
//   scenarios
//             List every registered scenario with its description.
//   generate  --scenario=NAME [--jobs=N] --seed=S --out-jobs=F --out-sites=F
//             Generate a workload and write it as trace files.
//   describe  --trace=F
//             Print summary statistics of a job trace.
//   run       [--trace=F --sites=F | --scenario=NAME [--jobs=N]] --algo=NAME
//             --mode=secure|f-risky|risky [--f=0.5] [--seed=S]
//             [--batch-interval=T] [--lambda=L] [--csv]
//             [--trace-events=F] [--metrics=F] [--ga-profile=F]
//             [--timeseries=F] [--timeseries-csv=F]
//             [--timeseries-interval=SEC]
//             Simulate and print the paper's metrics, including the
//             per-site utilization (paper Fig. 9). --algo is one of the
//             registry heuristics ("min-min", "sufferage", "max-min",
//             "mct", "met", "olb"), "stga" or "ga". --algo/--mode/--f
//             form one campaign-spec policy entry and are checked like
//             one: --mode and --f are errors with the GAs, --f with
//             secure or risky, and f must lie in [0, 1]. --lambda sets the
//             run's single Eq. 1 coefficient (default 2.5): the kernel
//             draws failures with it and hands it to the scheduler, so
//             the f-risky cutoff and both GAs' pfail matrix use the same
//             value. --trace-events writes
//             a Chrome trace_event JSON timeline (chrome://tracing /
//             Perfetto), --metrics the kernel metric snapshot
//             (README "Kernel metrics"), --ga-profile
//             per-generation GA convergence profiles (GA algos only).
//             --timeseries samples deterministic sim-time telemetry
//             (queue depth, in-flight attempts, busy fractions, outcome
//             counters) every --timeseries-interval simulated seconds
//             (default 1000) and writes it as JSON (--timeseries-csv for
//             CSV); with --trace-events too, the samples also merge into
//             the trace as Perfetto counter tracks.
//   campaign  SPEC.json [--threads=N] [--dry-run] [--out-json=F]
//             [--out-csv=F] [--profile=F] [--progress] [--quiet]
//             [--strict] [--retries=N] [--cell-timeout=SEC]
//             [--checkpoint=F] [--resume] [--timeseries=DIR]
//             [--timeseries-interval=SEC]
//             Run a declarative experiment campaign (scenario x policy x
//             replication grid; see examples/campaigns/ and the README
//             "Campaigns" section). --dry-run lists the expanded run
//             matrix without simulating; the aggregate JSON artifact is
//             byte-identical for any --threads value. --profile writes a
//             wall-clock sidecar (separate file, never mixed into the
//             stable aggregate); --progress shows a live cell counter
//             with throughput. Fault tolerance (README "Fault
//             tolerance"): failing cells degrade their group instead of
//             aborting the campaign (--strict restores abort-on-error,
//             and is the only mode where cell faults exit nonzero);
//             --retries re-runs failed cells with the same seed;
//             --cell-timeout arms a cooperative per-cell watchdog;
//             --checkpoint journals finished cells to F (fsync'd JSONL)
//             and --resume skips the journaled ones, byte-identically.
//             --timeseries writes one label-keyed telemetry series per
//             cell plus the cross-replication aggregate into DIR, all
//             byte-stable at any --threads (cells replayed via --resume
//             carry no series — the journal records scalar metrics only).
//
// --scenario accepts any name from exp::scenario_names() ("nas", "psa",
// "synth-inconsistent-hihi", ...). The older --kind=nas|psa spelling is
// kept as an alias. `run` and `campaign` reject any flag they do not list
// above (exit 1, naming it and the known flags), so a typo cannot
// silently run a different experiment. The global
// --log-level=debug|info|warn|error|off flag (default: info) controls
// stderr diagnostics. Every file written here (traces, snapshots, series,
// profiles, campaign artifacts) goes through util::write_file: one that
// cannot be written in full exits 1 naming the path.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gridsched.hpp"
#include "workload/stats.hpp"

using namespace gridsched;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: gridsched_cli "
               "<scenarios|generate|describe|run|campaign> [flags]\n"
               "see the header of examples/gridsched_cli.cpp for details\n");
  return 2;
}

exp::Scenario scenario_from(const util::Cli& cli) {
  // --scenario selects from the registry; --kind=nas|psa is the legacy
  // alias for the paper's two testbeds. Validate whichever flag the user
  // actually passed so errors name the right one.
  const std::vector<std::string> names = exp::scenario_names();
  const std::string name =
      cli.has("scenario")
          ? cli.get_choice("scenario", std::string("psa"), names)
          : cli.get_choice("kind", std::string("psa"), names);
  const std::int64_t jobs = cli.get_or("jobs", std::int64_t{0});
  if (jobs < 0) {
    throw std::invalid_argument("--jobs must be >= 0 (0 = scenario default)");
  }
  exp::Scenario scenario =
      exp::make_scenario(name, static_cast<std::size_t>(jobs));
  scenario.engine.batch_interval =
      cli.get_or("batch-interval", scenario.engine.batch_interval);
  scenario.engine.lambda = cli.get_or("lambda", scenario.engine.lambda);
  return scenario;
}

int cmd_scenarios() {
  util::Table table({"scenario", "description"});
  for (const std::string& name : exp::scenario_names()) {
    table.row().cell(name).cell(exp::scenario_description(name));
  }
  std::printf("%s", table.str().c_str());
  return 0;
}

/// The policy of `run`: an entry built from the --algo/--mode/--f flags
/// that were given, parsed and checked exactly like a campaign spec's.
exp::AlgorithmSpec policy_from(const util::Cli& cli) {
  namespace json = util::json;
  json::Members entry;
  entry.emplace_back("algo",
                     json::Value(cli.get_or("algo", std::string("min-min"))));
  if (const auto mode = cli.get("mode")) {
    entry.emplace_back("mode", json::Value(*mode));
  }
  if (cli.has("f")) entry.emplace_back("f", json::Value(cli.get_or("f", 0.5)));
  return exp::campaign::parse_policy(json::Value(std::move(entry))).resolve();
}

int cmd_generate(const util::Cli& cli) {
  const auto seed =
      static_cast<std::uint64_t>(cli.get_or("seed", std::int64_t{1}));
  const exp::Scenario scenario = scenario_from(cli);
  const workload::Workload workload = exp::make_workload(scenario, seed);
  const std::string out_jobs =
      cli.get_or("out-jobs", workload.name + "_jobs.trace");
  const std::string out_sites =
      cli.get_or("out-sites", workload.name + "_sites.trace");
  // Raw-ETC scenarios serialize their matrix into the jobs trace (the
  // versioned ";etc" section), so `run --trace` replays them exactly.
  workload::write_jobs_file(out_jobs, workload.jobs, workload.exec);
  workload::write_sites_file(out_sites, workload.sites);
  std::printf("wrote %zu jobs to %s (%s) and %zu sites to %s\n",
              workload.jobs.size(), out_jobs.c_str(),
              workload.exec.has_matrix() ? "with raw ETC"
                                         : "rank-1 work/speed",
              workload.sites.size(), out_sites.c_str());
  return 0;
}

int cmd_describe(const util::Cli& cli) {
  const auto path = cli.get("trace");
  if (!path) return usage();
  const auto jobs = workload::read_jobs_file(*path);
  const auto stats = workload::characterize(jobs);
  std::printf("%s", workload::describe(stats).c_str());
  return 0;
}

void print_metrics(const std::string& name, const metrics::RunMetrics& run,
                   bool csv) {
  if (csv) {
    util::Table table({"algorithm", "makespan", "avg_response", "slowdown",
                       "n_risk", "n_fail", "avg_utilization",
                       "site_down_events", "interruptions"});
    table.row().cell(name).cell(run.makespan, 6).cell(run.avg_response, 6)
        .cell(run.slowdown_ratio, 6).cell(run.n_risk).cell(run.n_fail)
        .cell(run.avg_utilization, 6).cell(run.site_down_events)
        .cell(run.interruptions);
    std::printf("%s", table.csv().c_str());
    return;
  }
  std::printf("algorithm:        %s\n", name.c_str());
  std::printf("makespan:         %.0f s\n", run.makespan);
  std::printf("avg response:     %.0f s\n", run.avg_response);
  std::printf("slowdown ratio:   %.2f\n", run.slowdown_ratio);
  std::printf("risk-taking jobs: %zu\n", run.n_risk);
  std::printf("failed jobs:      %zu\n", run.n_fail);
  std::printf("avg utilization:  %.1f%%\n", 100.0 * run.avg_utilization);
  std::printf("site utilization:");
  for (const double util : run.site_utilization) {
    std::printf(" %.1f", 100.0 * util);
  }
  std::printf(" %% (%zu idle)\n", run.idle_sites);
  if (run.site_down_events > 0) {
    std::printf("site churn:       %zu outages; %zu jobs interrupted "
                "(%zu interruptions)\n",
                run.site_down_events, run.n_interrupted, run.interruptions);
  }
  std::printf("scheduler time:   %.3f s over %zu batches\n",
              run.scheduler_seconds, run.batch_invocations);
}

int cmd_run(const util::Cli& cli) {
  static const std::vector<std::string> kKnown = {
      "trace", "sites", "scenario", "kind", "jobs", "algo", "mode", "f",
      "seed", "batch-interval", "lambda", "csv", "trace-events", "metrics",
      "ga-profile", "timeseries", "timeseries-csv", "timeseries-interval",
      "log-level"};
  cli.require_known(kKnown);
  const auto seed =
      static_cast<std::uint64_t>(cli.get_or("seed", std::int64_t{1}));
  const bool csv = cli.get_or("csv", false);
  const exp::AlgorithmSpec spec = policy_from(cli);

  // Optional observability sinks, shared by both modes. The trace
  // recorder and metric collector ride the kernel's single observer slot
  // through a tee; all of it stays detached unless a flag asks for it,
  // so the default run path keeps the null-observer fast path.
  const auto trace_events_path = cli.get("trace-events");
  const auto metrics_path = cli.get("metrics");
  const auto ga_profile_path = cli.get("ga-profile");
  const auto timeseries_path = cli.get("timeseries");
  const auto timeseries_csv_path = cli.get("timeseries-csv");
  const double timeseries_interval =
      cli.get_or("timeseries-interval", 1000.0);
  obs::SimTraceRecorder trace_recorder;
  obs::KernelMetricsObserver metrics_observer;
  std::unique_ptr<obs::TimeSeriesProbe> timeseries_probe;
  sim::KernelObserverTee tee;
  if (trace_events_path) tee.add(&trace_recorder);
  if (metrics_path) tee.add(&metrics_observer);
  if (timeseries_path || timeseries_csv_path) {
    timeseries_probe =
        std::make_unique<obs::TimeSeriesProbe>(timeseries_interval);
    tee.add(timeseries_probe.get());
  }
  sim::KernelObserver* observer = tee.empty() ? nullptr : &tee;
  std::vector<core::GaProfile> ga_profiles;
  const auto write_observability = [&] {
    if (timeseries_path) {
      util::write_file(*timeseries_path, obs::render_timeseries_json(
                                             timeseries_probe->series()));
      GS_LOG_INFO("wrote %zu telemetry samples to %s",
                  timeseries_probe->series().samples.size(),
                  timeseries_path->c_str());
    }
    if (timeseries_csv_path) {
      util::write_file(*timeseries_csv_path, obs::render_timeseries_csv(
                                                 timeseries_probe->series()));
      GS_LOG_INFO("wrote telemetry CSV to %s", timeseries_csv_path->c_str());
    }
    if (trace_events_path) {
      // Counter tracks render under the span tracks in Perfetto; merge
      // before writing so one file carries the full picture.
      if (timeseries_probe != nullptr) {
        trace_recorder.merge_counters(timeseries_probe->series());
      }
      util::write_file(*trace_events_path, trace_recorder.render() + "\n");
      GS_LOG_INFO("wrote %zu trace events to %s", trace_recorder.size(),
                  trace_events_path->c_str());
    }
    if (metrics_path) {
      util::write_file(*metrics_path, metrics_observer.snapshot_json() + "\n");
      GS_LOG_INFO("wrote metric snapshot to %s", metrics_path->c_str());
    }
    if (ga_profile_path) {
      util::write_file(*ga_profile_path, obs::render_ga_profiles(ga_profiles));
      GS_LOG_INFO("wrote %zu GA profile(s) to %s", ga_profiles.size(),
                  ga_profile_path->c_str());
    }
  };

  if (cli.has("trace") && cli.has("sites")) {
    // Replay mode: explicit traces, direct kernel drive. v2 traces carry
    // the raw ETC matrix and replay it exactly; v1 traces fall back to
    // the rank-1 work/speed model.
    workload::JobsTrace trace =
        workload::read_jobs_trace_file(*cli.get("trace"));
    auto sites = workload::read_sites_file(*cli.get("sites"));
    sim::EngineConfig config;
    config.batch_interval = cli.get_or("batch-interval", 2000.0);
    config.lambda = cli.get_or("lambda", security::kDefaultLambda);
    config.seed = seed;
    auto scheduler = spec.make(seed);
    if (ga_profile_path) {
      if (auto* ga = dynamic_cast<core::GaScheduler*>(scheduler.get())) {
        ga->set_profile_sink(&ga_profiles);
      }
    }
    if (!trace.exec.has_matrix()) {
      GS_LOG_WARN("trace carries no ETC section; replay uses the rank-1 "
                  "work/speed execution model");
    }
    sim::SimKernel kernel(std::move(sites),
                          std::make_unique<workload::MaterializedStream>(
                              std::move(trace.jobs), std::move(trace.exec)),
                          config);
    kernel.set_observer(observer);
    kernel.run(*scheduler);
    print_metrics(scheduler->name(), metrics::compute_metrics(kernel), csv);
    write_observability();
    return 0;
  }

  const exp::Scenario scenario = scenario_from(cli);
  exp::RunHooks hooks;
  hooks.observer = observer;
  hooks.ga_profiles = ga_profile_path ? &ga_profiles : nullptr;
  const metrics::RunMetrics run =
      exp::run_once(scenario, spec, seed, /*ga_pool=*/nullptr, hooks);
  print_metrics(spec.name, run, csv);
  write_observability();
  return 0;
}

int cmd_campaign(const util::Cli& cli) {
  if (cli.positional().size() < 2) {
    std::fprintf(stderr, "usage: gridsched_cli campaign SPEC.json "
                         "[--threads=N] [--dry-run] [--out-json=F] "
                         "[--out-csv=F] [--profile=F] [--progress] "
                         "[--quiet] [--strict] [--retries=N] "
                         "[--cell-timeout=SEC] [--checkpoint=F] "
                         "[--resume] [--timeseries=DIR] "
                         "[--timeseries-interval=SEC]\n");
    return 2;
  }
  static const std::vector<std::string> kKnown = {
      "threads", "dry-run", "out-json", "out-csv", "profile",
      "progress", "quiet", "strict", "retries", "cell-timeout",
      "checkpoint", "resume", "timeseries", "timeseries-interval",
      "log-level"};
  cli.require_known(kKnown);
  const std::string spec_path = cli.positional()[1];
  const exp::campaign::CampaignSpec spec = exp::campaign::load_spec(spec_path);

  if (cli.get_or("dry-run", false)) {
    // List the expanded run matrix: what would run, under which seed.
    const auto cells = exp::campaign::expand(spec);
    util::Table table({"cell", "scenario", "policy", "rep", "seed"});
    for (std::size_t i = 0; i < cells.size(); ++i) {
      char seed_hex[24];
      std::snprintf(seed_hex, sizeof seed_hex, "0x%016llx",
                    static_cast<unsigned long long>(cells[i].seed));
      table.row()
          .cell(i)
          .cell(spec.scenarios[cells[i].scenario].display())
          .cell(spec.policies[cells[i].policy].display())
          .cell(cells[i].replication)
          .cell(std::string(seed_hex));
    }
    std::printf("%s%zu cells (%zu scenarios x %zu policies x %zu reps)\n",
                table.str().c_str(), cells.size(), spec.scenarios.size(),
                spec.policies.size(), spec.replications);
    return 0;
  }

  exp::campaign::RunnerOptions options;
  const std::int64_t threads = cli.get_or("threads", std::int64_t{0});
  if (threads < 0) throw std::invalid_argument("--threads must be >= 0");
  options.threads = static_cast<std::size_t>(threads);
  options.strict = cli.get_or("strict", false);
  const std::int64_t retries = cli.get_or("retries", std::int64_t{0});
  if (retries < 0) throw std::invalid_argument("--retries must be >= 0");
  options.retries = static_cast<unsigned>(retries);
  options.cell_timeout = cli.get_or("cell-timeout", 0.0);
  if (options.cell_timeout < 0.0) {
    throw std::invalid_argument("--cell-timeout must be >= 0");
  }
  options.checkpoint = cli.get_or("checkpoint", std::string());
  options.resume = cli.get_or("resume", false);
  const auto timeseries_dir = cli.get("timeseries");
  if (timeseries_dir) {
    options.timeseries_interval = cli.get_or("timeseries-interval", 1000.0);
    if (options.timeseries_interval <= 0.0) {
      throw std::invalid_argument("--timeseries-interval must be > 0");
    }
  }
  const bool quiet = cli.get_or("quiet", false);
  const bool progress = cli.get_or("progress", false);
  if (progress) {
    // Rich live counter: throughput, the cell that just finished, and an
    // ETA from the completed cells' wall times. All of it is
    // stderr-sidecar display — wall clock never enters the artifacts.
    // The effective worker count mirrors the runner's resolution so the
    // ETA divides by what will actually run.
    std::size_t eta_threads = options.threads;
    if (eta_threads == 0) {
      eta_threads =
          std::max<std::size_t>(1, std::thread::hardware_concurrency());
    }
    options.on_cell = [&spec, eta_threads, wall_sum = 0.0, measured = 0ul,
                       start = std::chrono::steady_clock::now()](
                          const exp::campaign::CellResult& cell,
                          std::size_t done, std::size_t total) mutable {
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      wall_sum += cell.wall_seconds;
      ++measured;
      const double per_cell = wall_sum / static_cast<double>(measured);
      const double eta = per_cell * static_cast<double>(total - done) /
                         static_cast<double>(std::min(eta_threads, total));
      std::fprintf(stderr,
                   "\r[%zu/%zu] cells done — %.1f cells/s, ~%.0f s left "
                   "(last: %s/%s rep %zu in %.2f s)  ",
                   done, total, elapsed > 0.0 ? done / elapsed : 0.0, eta,
                   spec.scenarios[cell.cell.scenario].display().c_str(),
                   spec.policies[cell.cell.policy].display().c_str(),
                   cell.cell.replication, cell.wall_seconds);
      if (done == total) std::fprintf(stderr, "\n");
    };
  } else if (!quiet) {
    options.on_cell = [](const exp::campaign::CellResult& cell,
                         std::size_t done,
                         std::size_t total) {
      std::fprintf(stderr, "\r[%zu/%zu] cells done (last: makespan %.0f s)  ",
                   done, total, cell.metrics.makespan);
      if (done == total) std::fprintf(stderr, "\n");
    };
  }

  exp::campaign::CampaignRunner runner(options);
  const exp::campaign::CampaignResult result = runner.run(spec);

  if (!quiet) {
    std::cout << exp::campaign::render_table(result);
    std::cout.flush();
  }
  // The stable aggregate artifact is written by default (commit it like
  // BENCH_ga_decode.json); --out-json= overrides the path.
  const std::string out_json =
      cli.get_or("out-json", spec.name + "_campaign.json");
  util::write_file(out_json, exp::campaign::render_json(result));
  if (const auto csv_path = cli.get("out-csv")) {
    util::write_file(*csv_path, exp::campaign::render_csv(result));
  }
  // The wall-clock profile is a deliberately separate artifact: the
  // aggregate above stays byte-stable, the sidecar carries timing.
  const auto profile_path = cli.get("profile");
  if (profile_path) {
    util::write_file(*profile_path, exp::campaign::render_profile(result));
  }
  GS_LOG_INFO("wrote %s", out_json.c_str());
  if (profile_path) GS_LOG_INFO("wrote %s", profile_path->c_str());
  if (timeseries_dir) {
    exp::campaign::write_timeseries_dir(result, *timeseries_dir);
    GS_LOG_INFO("wrote per-cell telemetry series and aggregate.json to %s/",
                timeseries_dir->c_str());
  }
  if (!result.complete()) {
    // Degradation is loud but non-fatal: the aggregate covers the
    // surviving replications and says so. Only --strict (which throws
    // inside run()) turns cell faults into a nonzero exit.
    std::fprintf(stderr,
                 "warning: campaign degraded — %zu cell(s) failed, %zu "
                 "timed out (see \"status\" rows in %s)\n",
                 result.failed_cells(), result.timed_out_cells(),
                 out_json.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  if (cli.positional().empty()) return usage();
  const std::string& command = cli.positional().front();
  try {
    // CLI default is info (not the library's warn): interactive users get
    // the "wrote ..." confirmations; --log-level=warn silences them.
    util::set_log_level(
        util::parse_log_level(cli.get_or("log-level", std::string("info"))));
    if (command == "scenarios") return cmd_scenarios();
    if (command == "generate") return cmd_generate(cli);
    if (command == "describe") return cmd_describe(cli);
    if (command == "run") return cmd_run(cli);
    if (command == "campaign") return cmd_campaign(cli);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  return usage();
}
