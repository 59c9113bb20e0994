// Ablation study (extension): which STGA design choices matter?
//   * history table on/off (STGA vs classic GA)
//   * heuristic seeding on/off
//   * lookup-table capacity and similarity threshold
//   * fitness shaping (flowtime / expected-rework weights)
//   * failure-detection model (at-end vs uniform fraction)
// All on the PSA workload (N = 1000 by default, --psa-jobs=N; 300 with
// --quick), as two programmatic campaigns: one labelled `stga`/`ga`
// policy per variant, and Min-Min risky over one custom scenario per
// detection model. Campaign seeds pair the policies, so every variant of
// a replication schedules the same workload under the same failure draws.
// The seed mixes the scenario label, so the two detection-model rows run
// on different draws: compare them over replications (--reps=N).
#include "bench_common.hpp"

#include <iostream>

using namespace gridsched;

namespace {

exp::campaign::PolicyRef variant(const std::string& label,
                                 core::StgaConfig config,
                                 const char* algo = "stga") {
  exp::campaign::PolicyRef ref;
  ref.algo = algo;
  ref.label = label;
  ref.stga = config;
  return ref;
}

void run_and_print(const exp::campaign::CampaignSpec& spec) {
  const exp::campaign::CampaignResult result =
      exp::campaign::CampaignRunner().run(spec);
  std::cout << exp::campaign::render_table(result) << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args =
      bench::parse_args(argc, argv, {"reps", "seed", "quick", "psa-jobs"});
  const util::Cli cli(argc, argv);
  const auto psa_jobs = static_cast<std::size_t>(
      cli.get_or("psa-jobs", std::int64_t{args.quick ? 300 : 1000}));
  bench::print_banner(
      "Ablation -- STGA design choices (PSA, N=" + std::to_string(psa_jobs) +
          ")",
      "history + heuristic seeds drive the win; tiny tables / strict "
      "thresholds reduce reuse; fitness shaping trades makespan vs response");

  core::StgaConfig base;
  // A deliberately tight budget so the initial population quality shows.
  base.ga.generations = 30;

  exp::campaign::CampaignSpec variants;
  variants.name = "ablation";
  variants.seed = args.seed;
  variants.replications = args.reps;
  variants.metrics = {"makespan", "avg_response", "slowdown", "n_fail",
                      "scheduler_seconds"};
  exp::campaign::ScenarioRef psa;
  psa.name = "psa";
  psa.n_jobs = psa_jobs;
  variants.scenarios.push_back(psa);
  variants.policies.push_back(variant("STGA (paper config)", base));
  {
    core::StgaConfig config = base;
    config.heuristic_seeds = false;
    variants.policies.push_back(variant("STGA, no heuristic seeds", config));
  }
  variants.policies.push_back(
      variant("classic GA (no history/seeds)", base, "ga"));
  {
    core::StgaConfig config = base;
    config.table_capacity = 10;
    variants.policies.push_back(variant("STGA, table capacity 10", config));
  }
  {
    core::StgaConfig config = base;
    config.similarity_threshold = 0.95;
    variants.policies.push_back(variant("STGA, threshold 0.95", config));
  }
  {
    core::StgaConfig config = base;
    config.similarity_threshold = 0.5;
    variants.policies.push_back(variant("STGA, threshold 0.50", config));
  }
  {
    core::StgaConfig config = base;
    config.ga.fitness = {0.0, 0.0};  // pure makespan objective
    variants.policies.push_back(variant("STGA, pure-makespan fitness", config));
  }
  {
    core::StgaConfig config = base;
    config.ga.fitness = {0.6, 0.0};  // no expected-rework term
    variants.policies.push_back(variant("STGA, no risk penalty", config));
  }
  run_and_print(variants);

  // Failure-detection model ablation on the heuristics.
  exp::campaign::CampaignSpec detection;
  detection.name = "ablation-detection";
  detection.seed = args.seed;
  detection.replications = args.reps;
  detection.metrics = {"makespan", "avg_response"};
  for (const bool at_end : {false, true}) {
    exp::campaign::ScenarioRef ref;
    ref.name = "psa";
    ref.label = at_end ? "at planned end" : "uniform fraction";
    ref.custom = exp::psa_scenario(psa_jobs);
    ref.custom->engine.detection =
        at_end ? sim::FailureDetection::kAtEnd
               : sim::FailureDetection::kUniformFraction;
    detection.scenarios.push_back(std::move(ref));
  }
  exp::campaign::PolicyRef min_min_risky;
  min_min_risky.mode = "risky";
  detection.policies.push_back(min_min_risky);
  run_and_print(detection);
  return 0;
}
