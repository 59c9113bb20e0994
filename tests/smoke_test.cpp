// End-to-end smoke: the committed paper campaign's seven algorithms
// (examples/campaigns/paper/nas.json) finish a tiny run of its scenario and
// satisfy the global invariants.
#include <gtest/gtest.h>

#include <string>

#include "gridsched.hpp"

namespace gridsched {
namespace {

TEST(Smoke, TinyPaperNasSpecRunsEveryPolicy) {
  const exp::campaign::CampaignSpec spec = exp::campaign::load_spec(
      std::string(GRIDSCHED_SOURCE_DIR) + "/examples/campaigns/paper/nas.json");
  exp::campaign::ScenarioRef scenario_ref = spec.scenarios.at(0);
  scenario_ref.n_jobs = 60;
  exp::Scenario scenario = scenario_ref.resolve();
  scenario.training_jobs = 40;
  ASSERT_EQ(spec.policies.size(), 7u);
  for (exp::campaign::PolicyRef policy : spec.policies) {
    policy.stga.ga.population = 30;
    policy.stga.ga.generations = 10;
    const exp::AlgorithmSpec algorithm = policy.resolve();
    const metrics::RunMetrics run = exp::run_once(scenario, algorithm, 1234);
    EXPECT_EQ(run.n_jobs, 60u) << algorithm.name;
    EXPECT_GT(run.makespan, 0.0) << algorithm.name;
    EXPECT_LE(run.n_fail, run.n_risk) << algorithm.name;
    EXPECT_GE(run.slowdown_ratio, 1.0) << algorithm.name;
  }
}

}  // namespace
}  // namespace gridsched
