// Synthetic-scenario sweep: every registered synth-* scenario (ETC
// consistency classes, arrival processes, security regimes) against every
// registry heuristic plus the GAs — expressed as a declarative campaign
// and sharded across the thread pool (--threads=N; 1 = serial).
// Deterministic in --seed: per-cell seeds hash (seed, scenario,
// replication), so every policy of a replication runs on the same
// workload, two runs with the same seed print identical makespan/slowdown
// tables for ANY thread count, and the output doubles as a
// reproducibility check for the generator and the campaign layer.
#include "bench_common.hpp"

using namespace gridsched;

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_args(argc, argv);
  const util::Cli cli(argc, argv);
  const auto jobs = static_cast<std::size_t>(
      cli.get_or("jobs", std::int64_t{args.quick ? 200 : 500}));

  bench::print_banner(
      "Synthetic scenario sweep (N=" + std::to_string(jobs) +
          " per scenario, seed=" + std::to_string(args.seed) + ")",
      "heterogeneity class and arrival burstiness dominate makespan; the "
      "risky security regime trades failures for response time");

  exp::campaign::CampaignSpec spec;
  spec.name = "bench-synth";
  spec.seed = args.seed;
  spec.replications = args.reps;
  spec.metrics = {"makespan", "slowdown", "n_fail", "n_risk", "avg_response"};
  for (const std::string& name : exp::scenario_names()) {
    if (name.rfind("synth-", 0) != 0) continue;
    exp::campaign::ScenarioRef ref;
    ref.name = name;
    ref.n_jobs = jobs;
    spec.scenarios.push_back(std::move(ref));
  }
  // All registry heuristics under the f-risky policy, plus the GAs.
  for (const std::string& name : sched::heuristic_names()) {
    exp::campaign::PolicyRef ref;
    ref.algo = name;
    ref.mode = "f-risky";
    ref.f = args.f;
    spec.policies.push_back(std::move(ref));
  }
  core::StgaConfig stga;  // paper Table 1 defaults
  if (args.quick) {
    stga.ga.population = 50;
    stga.ga.generations = 20;
  }
  for (const char* ga_algo : {"stga", "ga"}) {
    exp::campaign::PolicyRef ref;
    ref.algo = ga_algo;
    ref.stga = stga;
    spec.policies.push_back(std::move(ref));
  }

  exp::campaign::RunnerOptions options;
  options.threads = static_cast<std::size_t>(
      cli.get_or("threads", std::int64_t{0}));
  // Full sweeps run the GAs for minutes: stream per-cell progress to
  // stderr so the (stdout) table stays clean and diffable.
  options.on_cell = [&spec](const exp::campaign::CellResult& cell,
                            std::size_t done, std::size_t total) {
    std::fprintf(stderr, "[%zu/%zu] %s / %s rep %zu: makespan %.0f s\n",
                 done, total,
                 spec.scenarios[cell.cell.scenario].display().c_str(),
                 spec.policies[cell.cell.policy].display().c_str(),
                 cell.cell.replication, cell.metrics.makespan);
  };
  exp::campaign::CampaignRunner runner(options);
  const exp::campaign::CampaignResult result = runner.run(spec);
  std::printf("%s\n", exp::campaign::render_table(result).c_str());
  // Wall clock and memory stay out of any --out-json artifact (that one
  // is byte-stable); they live on the human-facing footer only.
  std::printf("peak RSS: %.1f MiB\n", bench::peak_rss_mib());

  try {
    if (const auto path = cli.get("out-json")) {
      util::write_file(*path, exp::campaign::render_json(result));
      std::printf("wrote %s\n", path->c_str());
    }
    if (const auto path = cli.get("profile")) {
      util::write_file(*path, exp::campaign::render_profile(result));
      std::printf("wrote %s\n", path->c_str());
    }
  } catch (const std::runtime_error& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  return 0;
}
