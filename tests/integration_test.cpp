// Whole-pipeline integration tests: full simulations through the experiment
// harness, checking the paper's structural invariants on every algorithm.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "gridsched.hpp"

namespace gridsched {
namespace {

core::StgaConfig tiny_stga() {
  core::StgaConfig config;
  config.ga.population = 24;
  config.ga.generations = 8;
  return config;
}

/// A committed paper campaign (examples/campaigns/paper/`file`): the same
/// scenarios and policy list CI runs and compares.
exp::campaign::CampaignSpec paper_spec(const std::string& file) {
  return exp::campaign::load_spec(std::string(GRIDSCHED_SOURCE_DIR) +
                                  "/examples/campaigns/paper/" + file);
}

/// The spec's policies resolved in order, GA policies at tiny_stga() size.
std::vector<exp::AlgorithmSpec> tiny_policies(
    const exp::campaign::CampaignSpec& spec) {
  const core::GaParams tiny = tiny_stga().ga;
  std::vector<exp::AlgorithmSpec> algorithms;
  for (exp::campaign::PolicyRef policy : spec.policies) {
    policy.stga.ga.population = tiny.population;
    policy.stga.ga.generations = tiny.generations;
    algorithms.push_back(policy.resolve());
  }
  return algorithms;
}

/// The spec's first scenario at `n_jobs` jobs with a short STGA training.
exp::Scenario tiny_scenario(const exp::campaign::CampaignSpec& spec,
                            std::size_t n_jobs) {
  exp::campaign::ScenarioRef ref = spec.scenarios.at(0);
  ref.n_jobs = n_jobs;
  exp::Scenario scenario = ref.resolve();
  scenario.training_jobs = 30;
  return scenario;
}

exp::Scenario tiny_psa(std::size_t n_jobs = 80) {
  return tiny_scenario(paper_spec("fig10.json"), n_jobs);
}

exp::Scenario tiny_nas(std::size_t n_jobs = 150) {
  return tiny_scenario(paper_spec("nas.json"), n_jobs);
}

void check_invariants(const metrics::RunMetrics& run, std::size_t n_jobs,
                      const std::string& label) {
  EXPECT_EQ(run.n_jobs, n_jobs) << label;
  EXPECT_GT(run.makespan, 0.0) << label;
  EXPECT_GT(run.avg_response, 0.0) << label;
  EXPECT_GE(run.slowdown_ratio, 1.0) << label;  // response >= execution
  EXPECT_LE(run.n_fail, run.n_risk) << label;
  EXPECT_GE(run.total_attempts, run.n_jobs) << label;
  // Fail-stop: at most one failure per job.
  EXPECT_LE(run.total_attempts, run.n_jobs + run.n_fail) << label;
  for (const double util : run.site_utilization) {
    EXPECT_GE(util, 0.0) << label;
    EXPECT_LE(util, 1.0) << label;
  }
}

TEST(Integration, PaperNasSpecListsSevenAlgorithmsInOrder) {
  const auto spec = paper_spec("nas.json");
  std::vector<std::string> labels;
  for (const auto& policy : spec.policies) labels.push_back(policy.display());
  EXPECT_EQ(labels, (std::vector<std::string>{
                        "min-min-secure", "min-min-f-risky", "min-min-risky",
                        "sufferage-secure", "sufferage-f-risky",
                        "sufferage-risky", "stga"}));
  const auto roster = tiny_policies(spec);
  ASSERT_EQ(roster.size(), 7u);
  EXPECT_EQ(roster[0].name, "Min-Min secure");
  EXPECT_EQ(roster[1].name, "Min-Min f-risky");
  EXPECT_EQ(roster[2].name, "Min-Min risky");
  EXPECT_EQ(roster[3].name, "Sufferage secure");
  EXPECT_EQ(roster[4].name, "Sufferage f-risky");
  EXPECT_EQ(roster[5].name, "Sufferage risky");
  EXPECT_EQ(roster[6].name, "STGA");
  EXPECT_TRUE(roster[6].wants_training);
  EXPECT_FALSE(roster[0].wants_training);
  EXPECT_DOUBLE_EQ(spec.policies[1].f, 0.5);
  EXPECT_DOUBLE_EQ(spec.policies[4].f, 0.5);
}

TEST(Integration, FigTenSpecIsTheScalingTrio) {
  const auto spec = paper_spec("fig10.json");
  const auto roster = tiny_policies(spec);
  ASSERT_EQ(roster.size(), 3u);
  EXPECT_EQ(roster[0].name, "Min-Min f-risky");
  EXPECT_EQ(roster[1].name, "Sufferage f-risky");
  EXPECT_EQ(roster[2].name, "STGA");
  EXPECT_DOUBLE_EQ(spec.policies[0].f, 0.5);
  EXPECT_DOUBLE_EQ(spec.policies[1].f, 0.5);
}

TEST(Integration, AllAlgorithmsCompleteTinyPsa) {
  const auto scenario = tiny_psa();
  for (const auto& spec : tiny_policies(paper_spec("nas.json"))) {
    const auto run = exp::run_once(scenario, spec, 4242);
    check_invariants(run, 80, spec.name);
  }
}

TEST(Integration, AllAlgorithmsCompleteTinyNas) {
  const auto scenario = tiny_nas();
  for (const auto& spec : tiny_policies(paper_spec("nas.json"))) {
    const auto run = exp::run_once(scenario, spec, 999);
    check_invariants(run, 150, spec.name);
  }
}

TEST(Integration, SecureModeNeverRisksOrFails) {
  const auto scenario = tiny_psa();
  for (const auto& spec :
       {exp::heuristic_spec("min-min", security::RiskPolicy::secure()),
        exp::heuristic_spec("sufferage", security::RiskPolicy::secure())}) {
    const auto run = exp::run_once(scenario, spec, 7);
    EXPECT_EQ(run.n_risk, 0u) << spec.name;
    EXPECT_EQ(run.n_fail, 0u) << spec.name;
  }
}

TEST(Integration, RiskyModesDoTakeRisk) {
  const auto scenario = tiny_psa(120);
  const auto spec =
      exp::heuristic_spec("min-min", security::RiskPolicy::risky());
  const auto run = exp::run_once(scenario, spec, 11);
  EXPECT_GT(run.n_risk, 0u);
}

TEST(Integration, RunOnceIsDeterministicPerSeed) {
  const auto scenario = tiny_psa();
  const auto spec = exp::stga_spec(tiny_stga());
  const auto a = exp::run_once(scenario, spec, 321);
  const auto b = exp::run_once(scenario, spec, 321);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_DOUBLE_EQ(a.avg_response, b.avg_response);
  EXPECT_EQ(a.n_risk, b.n_risk);
  EXPECT_EQ(a.n_fail, b.n_fail);
}

TEST(Integration, DifferentSeedsGiveDifferentWorkloads) {
  const auto scenario = tiny_psa();
  const auto spec =
      exp::heuristic_spec("min-min", security::RiskPolicy::f_risky(0.5));
  const auto a = exp::run_once(scenario, spec, 1);
  const auto b = exp::run_once(scenario, spec, 2);
  EXPECT_NE(a.makespan, b.makespan);
}

TEST(Integration, TrainingWarmsTheStgaTable) {
  // Run the STGA training phase by hand and check the table fills.
  const auto scenario = tiny_psa(60);
  const auto workload = exp::make_workload(scenario, 5);
  auto stga = core::make_stga(tiny_stga());
  const auto training =
      exp::make_training_workload(scenario, workload, 40, 6);
  EXPECT_EQ(training.sites.size(), workload.sites.size());
  sched::MinMinScheduler heuristic(security::RiskPolicy::risky());
  core::RecordingScheduler recorder(heuristic, *stga);
  sim::SimKernel kernel(training.sites, training.jobs, scenario.engine);
  kernel.run(recorder);
  EXPECT_GT(stga->history().size(), 0u);
}

TEST(Integration, SecureSlowerThanRiskyOnCongestedNas) {
  // The paper's headline ordering at small scale, averaged over a 3-rep
  // campaign to damp noise: secure-mode response time is materially
  // worse. The campaign pairs the two policies on each replication's seed.
  exp::campaign::CampaignSpec spec;
  spec.seed = 1234;
  spec.replications = 3;
  spec.metrics = {"avg_response"};
  exp::campaign::ScenarioRef nas;
  nas.name = "nas";
  nas.custom = tiny_nas(300);
  spec.scenarios.push_back(nas);
  for (const char* mode : {"secure", "risky"}) {
    exp::campaign::PolicyRef policy;
    policy.algo = "min-min";
    policy.mode = mode;
    spec.policies.push_back(policy);
  }
  exp::campaign::RunnerOptions options;
  options.threads = 1;
  const auto result = exp::campaign::CampaignRunner(options).run(spec);
  ASSERT_EQ(result.groups.size(), 2u);
  const auto& secure = result.groups[0];
  const auto& risky = result.groups[1];
  ASSERT_EQ(secure.policy, "min-min-secure");
  ASSERT_EQ(risky.cells, 3u);
  EXPECT_GT(secure.metrics[0].summary.mean, risky.metrics[0].summary.mean);
}

TEST(Integration, FRiskyInterpolatesRiskCounts) {
  const auto scenario = tiny_psa(150);
  const auto f0 = exp::run_once(
      scenario, exp::heuristic_spec("min-min", security::RiskPolicy::secure()),
      55);
  const auto f_half = exp::run_once(
      scenario,
      exp::heuristic_spec("min-min", security::RiskPolicy::f_risky(0.5)), 55);
  const auto f1 = exp::run_once(
      scenario, exp::heuristic_spec("min-min", security::RiskPolicy::risky()),
      55);
  EXPECT_EQ(f0.n_risk, 0u);
  EXPECT_GT(f_half.n_risk, 0u);
  EXPECT_GE(f1.n_risk, f_half.n_risk / 2);  // loose: same order of magnitude
}

TEST(Integration, StgaSchedulerSecondsAreRecorded) {
  const auto scenario = tiny_psa(60);
  const auto run = exp::run_once(scenario, exp::stga_spec(tiny_stga()), 13);
  EXPECT_GT(run.scheduler_seconds, 0.0);
  EXPECT_GT(run.batch_invocations, 0u);
}

TEST(Integration, ClassicGaAlsoCompletes) {
  const auto scenario = tiny_psa(60);
  const auto run = exp::run_once(scenario, exp::classic_ga_spec(tiny_stga()),
                                 17);
  check_invariants(run, 60, "GA");
}

}  // namespace
}  // namespace gridsched
