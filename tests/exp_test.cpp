#include "exp/roster.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "exp/scenario_registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <utility>

#include "workload/stats.hpp"

namespace gridsched::exp {
namespace {

TEST(Scenario, NasDefaultsMatchPaperTableOne) {
  const Scenario scenario = nas_scenario();
  EXPECT_EQ(scenario.kind, ScenarioKind::kNas);
  EXPECT_EQ(scenario.nas.n_jobs, 16000u);
  EXPECT_NEAR(scenario.nas.horizon, 46.0 * 86400.0, 1.0);
  EXPECT_DOUBLE_EQ(scenario.engine.batch_interval, 4000.0);
  EXPECT_EQ(scenario.training_jobs, 500u);
}

TEST(Scenario, NasScalesHorizonWithJobCount) {
  const Scenario half = nas_scenario(8000);
  EXPECT_NEAR(half.nas.horizon, 23.0 * 86400.0, 1.0);
}

TEST(Scenario, PsaDefaults) {
  const Scenario scenario = psa_scenario(1234);
  EXPECT_EQ(scenario.kind, ScenarioKind::kPsa);
  EXPECT_EQ(scenario.psa.n_jobs, 1234u);
  EXPECT_DOUBLE_EQ(scenario.engine.batch_interval, 2000.0);
}

TEST(Scenario, MakeWorkloadDispatchesOnKind) {
  const workload::Workload nas = make_workload(nas_scenario(100), 1);
  EXPECT_EQ(nas.name, "NAS");
  EXPECT_EQ(nas.sites.size(), 12u);
  const workload::Workload psa = make_workload(psa_scenario(100), 1);
  EXPECT_EQ(psa.name, "PSA");
  EXPECT_EQ(psa.sites.size(), 20u);
}

TEST(Scenario, TrainingWorkloadReusesMainSites) {
  const Scenario scenario = psa_scenario(100);
  const workload::Workload main = make_workload(scenario, 7);
  const workload::Workload training =
      make_training_workload(scenario, main, 40, 8);
  ASSERT_EQ(training.sites.size(), main.sites.size());
  for (std::size_t s = 0; s < main.sites.size(); ++s) {
    EXPECT_DOUBLE_EQ(training.sites[s].security, main.sites[s].security);
    EXPECT_DOUBLE_EQ(training.sites[s].speed, main.sites[s].speed);
  }
  EXPECT_EQ(training.jobs.size(), 40u);
  EXPECT_NE(training.name.find("training"), std::string::npos);
}

TEST(Scenario, SynthTrainingWorkloadRegathersTheMainEtc) {
  // The training workload reuses the main run's sites, which invalidates
  // the raw ETC generated against the training grid. It must NOT fall back
  // to rank-1 (the old bug): instead every training job carries a row
  // re-gathered from the *main* grid's authoritative ETC, so STGA trains
  // on the true matrix.
  const Scenario scenario = make_scenario("synth-inconsistent-hihi", 60);
  const workload::Workload main = make_workload(scenario, 7);
  ASSERT_TRUE(main.exec.has_matrix());
  const workload::Workload training =
      make_training_workload(scenario, main, 20, 8);
  ASSERT_TRUE(training.exec.has_matrix());
  EXPECT_EQ(training.jobs.size(), 20u);
  ASSERT_EQ(training.exec.matrix_jobs(), 20u);
  ASSERT_EQ(training.exec.matrix_sites(), main.exec.matrix_sites());

  // Golden property: each training row is bit-identical to some main-grid
  // row, with the matching work scalar (etc ~ work / speed stays
  // self-consistent through the substitution).
  const std::span<const double> main_cells = main.exec.matrix_cells();
  const std::span<const double> training_cells = training.exec.matrix_cells();
  const std::size_t n_sites = main.exec.matrix_sites();
  for (std::size_t j = 0; j < training.jobs.size(); ++j) {
    bool matched = false;
    for (std::size_t r = 0; r < main.exec.matrix_jobs() && !matched; ++r) {
      bool equal = true;
      for (std::size_t s = 0; s < n_sites; ++s) {
        if (training_cells[j * n_sites + s] != main_cells[r * n_sites + s]) {
          equal = false;
          break;
        }
      }
      if (equal && training.jobs[j].work == main.jobs[r].work) matched = true;
    }
    EXPECT_TRUE(matched) << "training job " << j
                         << " carries a row absent from the main ETC";
  }

  // Deterministic in (scenario, main, seed).
  const workload::Workload again =
      make_training_workload(scenario, main, 20, 8);
  ASSERT_TRUE(again.exec.has_matrix());
  EXPECT_TRUE(std::equal(training_cells.begin(), training_cells.end(),
                         again.exec.matrix_cells().begin()));

  // Non-matrix scenarios (psa) keep the rank-1 fallback.
  const Scenario psa = psa_scenario(60);
  const workload::Workload psa_main = make_workload(psa, 7);
  EXPECT_FALSE(
      make_training_workload(psa, psa_main, 20, 8).exec.has_matrix());
}

TEST(Scenario, TrainingWorkloadShrinksNasHorizon) {
  const Scenario scenario = nas_scenario(1000);
  const workload::Workload main = make_workload(scenario, 9);
  const workload::Workload training =
      make_training_workload(scenario, main, 100, 10);
  const auto stats = workload::characterize(training.jobs);
  EXPECT_LT(stats.span, scenario.nas.horizon);
}

TEST(Roster, HeuristicSpecValidatesName) {
  EXPECT_THROW(heuristic_spec("no-such", security::RiskPolicy::secure()),
               std::invalid_argument);
}

TEST(Roster, SpecsProduceFreshSchedulers) {
  const AlgorithmSpec spec =
      heuristic_spec("min-min", security::RiskPolicy::risky());
  const auto a = spec.make(1);
  const auto b = spec.make(2);
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(a->name(), "Min-Min risky");
}

TEST(Roster, StgaSpecThreadsSeedIntoConfig) {
  const AlgorithmSpec spec = stga_spec();
  const auto scheduler = spec.make(12345);
  const auto* stga = dynamic_cast<core::GaScheduler*>(scheduler.get());
  ASSERT_NE(stga, nullptr);
  EXPECT_EQ(stga->config().seed, 12345u);
  EXPECT_TRUE(stga->config().use_history);
}

TEST(Roster, ClassicGaSpecDisablesHistory) {
  const AlgorithmSpec spec = classic_ga_spec();
  const auto scheduler = spec.make(1);
  const auto* ga = dynamic_cast<core::GaScheduler*>(scheduler.get());
  ASSERT_NE(ga, nullptr);
  EXPECT_FALSE(ga->config().use_history);
  EXPECT_FALSE(spec.wants_training);
}

TEST(Runner, TrainingJobsZeroSkipsTraining) {
  Scenario scenario = psa_scenario(40);
  scenario.training_jobs = 0;
  core::StgaConfig config;
  config.ga.population = 16;
  config.ga.generations = 4;
  const auto run = run_once(scenario, stga_spec(config), 77);
  EXPECT_EQ(run.n_jobs, 40u);
}

/// 64-bit FNV-1a over every deterministic RunMetrics field
/// (scheduler_seconds is wall clock and left out). Numbers are hashed as
/// 8-byte little-endian bit patterns.
std::uint64_t metrics_digest(const metrics::RunMetrics& m) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto u64 = [&hash](std::uint64_t value) {
    for (int shift = 0; shift < 64; shift += 8) {
      hash = (hash ^ static_cast<unsigned char>(value >> shift)) *
             0x100000001b3ULL;
    }
  };
  for (const std::size_t count :
       {m.n_jobs, m.n_risk, m.n_fail, m.total_attempts, m.failure_events,
        m.risky_attempts, m.released_nodes, m.unreleased_nodes,
        m.site_down_events, m.site_up_events, m.interruptions,
        m.n_interrupted, m.churn_released_nodes, m.churn_unreleased_nodes,
        m.batch_invocations, m.events, m.idle_sites}) {
    u64(count);
  }
  for (const double value :
       {m.makespan, m.avg_response, m.avg_final_exec, m.slowdown_ratio,
        m.mean_job_slowdown, m.avg_utilization}) {
    u64(std::bit_cast<std::uint64_t>(value));
  }
  u64(m.site_utilization.size());
  for (const double value : m.site_utilization) {
    u64(std::bit_cast<std::uint64_t>(value));
  }
  return hash;
}

// A trained STGA on a raw-ETC synth scenario is the run_once path that
// materializes the workload: training resamples the main workload's ETC
// rows, and the measured run reads the main matrix's rows through the
// kernel. Digests captured at commit 44972b5, when the kernel took the
// matrix as a constructor argument instead of pulling rows from the job
// stream.
TEST(Runner, TrainedStgaOnRawEtcSynthReproducesGoldenDigests) {
  const Scenario scenario = make_scenario("synth-semi-lolo", 60);
  core::StgaConfig config;
  config.ga.population = 16;
  config.ga.generations = 6;
  const AlgorithmSpec spec = stga_spec(config);
  ASSERT_TRUE(spec.wants_training);
  const std::pair<std::uint64_t, std::uint64_t> golden[] = {
      {7, 0x0912fa9ca62ef600ULL},
      {20050419, 0xabb31c5b87648e0dULL},
  };
  for (const auto& [seed, digest] : golden) {
    const metrics::RunMetrics run = run_once(scenario, spec, seed);
    EXPECT_EQ(run.n_jobs, 60u);
    EXPECT_EQ(metrics_digest(run), digest)
        << "seed " << seed << ": 0x" << std::hex << metrics_digest(run);
  }
}

TEST(WorkloadStats, CharacterizesGeneratedTrace) {
  const workload::Workload psa = make_workload(psa_scenario(400), 11);
  const auto stats = workload::characterize(psa.jobs);
  EXPECT_EQ(stats.n_jobs, 400u);
  EXPECT_GT(stats.span, 0.0);
  EXPECT_NEAR(stats.interarrival.mean(), 125.0, 25.0);  // 1/0.008
  EXPECT_EQ(stats.size_histogram.size(), 1u);           // all sequential
  EXPECT_GT(stats.total_node_seconds, 0.0);
  const std::string text = workload::describe(stats);
  EXPECT_NE(text.find("jobs:"), std::string::npos);
  EXPECT_NE(text.find("node requests:"), std::string::npos);
}

TEST(WorkloadStats, EmptyWorkload) {
  const auto stats = workload::characterize({});
  EXPECT_EQ(stats.n_jobs, 0u);
  EXPECT_DOUBLE_EQ(stats.offered_load(100.0), 0.0);
}

TEST(WorkloadStats, OfferedLoadFormula) {
  std::vector<sim::Job> jobs(2);
  jobs[0].arrival = 0.0;
  jobs[0].work = 100.0;
  jobs[0].nodes = 2;  // 200 node-seconds
  jobs[1].arrival = 100.0;
  jobs[1].work = 50.0;
  jobs[1].nodes = 4;  // 200 node-seconds
  const auto stats = workload::characterize(jobs);
  EXPECT_DOUBLE_EQ(stats.total_node_seconds, 400.0);
  // capacity 8 node/s over span 100 s = 800; load = 0.5.
  EXPECT_DOUBLE_EQ(stats.offered_load(8.0), 0.5);
}

}  // namespace
}  // namespace gridsched::exp
