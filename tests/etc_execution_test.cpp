// Raw-ETC execution model, end to end: sim::ExecModel validation, a
// hand-checked small instance driven through the engine, and the golden
// property that the synth-{semi,inconsistent}-* scenarios now run the
// engine / heuristics / GA on the raw generated matrix (no fit_work_speed
// projection anywhere in the execution path).
#include "sim/exec_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/ga_problem.hpp"
#include "core/ga_scheduler.hpp"
#include "exp/scenario_registry.hpp"
#include "job_recorder.hpp"
#include "sched/etc_matrix.hpp"
#include "sched/heuristics.hpp"
#include "sim/kernel.hpp"
#include "workload/synth/synth.hpp"

namespace gridsched {
namespace {

// ------------------------------------------------------------ ExecModel ---

TEST(ExecModel, DefaultIsRankOneFallback) {
  const sim::ExecModel model;
  EXPECT_FALSE(model.has_matrix());
  EXPECT_EQ(model.row(0), nullptr);
  EXPECT_DOUBLE_EQ(sim::exec_time(model.row(0), 100.0, 0, 4.0), 25.0);
}

TEST(ExecModel, MatrixIsAuthoritative) {
  const sim::ExecModel model(2, 2, {30.0, 200.0, 200.0, 40.0});
  ASSERT_TRUE(model.has_matrix());
  // work/speed arguments are ignored when a matrix is attached.
  EXPECT_DOUBLE_EQ(sim::exec_time(model.row(0), 999.0, 0, 7.0), 30.0);
  EXPECT_DOUBLE_EQ(sim::exec_time(model.row(0), 999.0, 1, 7.0), 200.0);
  EXPECT_DOUBLE_EQ(sim::exec_time(model.row(1), 999.0, 1, 7.0), 40.0);
}

TEST(ExecModel, RejectsBadMatrices) {
  EXPECT_THROW(sim::ExecModel(2, 2, {1.0, 2.0, 3.0}), std::invalid_argument);
  EXPECT_THROW(sim::ExecModel(0, 2, {}), std::invalid_argument);
  EXPECT_THROW(sim::ExecModel(1, 2, {1.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(sim::ExecModel(1, 2, {1.0, -3.0}), std::invalid_argument);
  EXPECT_THROW(
      sim::ExecModel(1, 2, {1.0, std::numeric_limits<double>::infinity()}),
      std::invalid_argument);
}

TEST(ExecModel, CheckShapeGuardsEngineWiring) {
  const sim::ExecModel model(4, 2, std::vector<double>(8, 1.0));
  EXPECT_NO_THROW(model.check_shape(4, 2));
  // Exact shape only: extra rows mean the job list was subset relative to
  // the matrix, i.e. dense JobIds no longer select the right row.
  EXPECT_THROW(model.check_shape(3, 2), std::invalid_argument);
  EXPECT_THROW(model.check_shape(5, 2), std::invalid_argument);
  EXPECT_THROW(model.check_shape(4, 3), std::invalid_argument);
  EXPECT_NO_THROW(sim::ExecModel{}.check_shape(100, 100));  // fallback: any
}

// ------------------------------------------- hand-checked small instance ---

TEST(EtcExecution, EngineRealisesHandCheckedRawEtc) {
  // Two unit-speed 1-node sites, two jobs of identical `work` 100. Under
  // the rank-1 law the matrix would be flat 100s; the raw ETC instead
  // makes each job fast on "its" site. Hand-schedule (MCT, batch order,
  // first cycle at t=50):
  //   J0: site0 completes 50 + 30 = 80, site1 50 + 200 = 250  -> site0
  //   J1: site0 now frees at 80 -> 80 + 200 = 280, site1 50 + 40 = 90
  //                                                           -> site1
  const sim::ExecModel etc(2, 2, {30.0, 200.0, 200.0, 40.0});
  std::vector<sim::Job> jobs(2);
  for (auto& job : jobs) {
    job.work = 100.0;
    job.nodes = 1;
    job.demand = 0.5;
  }
  sim::EngineConfig config;
  config.batch_interval = 50.0;
  sim::SimKernel kernel({{0, 1, 1.0, 1.0}, {1, 1, 1.0, 1.0}}, jobs, config,
                        etc);
  sched::MctScheduler scheduler(security::RiskPolicy::secure());
  const std::vector<sim::Job> done = test::run_recorded(kernel, scheduler);

  EXPECT_EQ(done[0].final_site, 0u);
  EXPECT_DOUBLE_EQ(done[0].finish, 80.0);
  EXPECT_EQ(done[1].final_site, 1u);
  EXPECT_DOUBLE_EQ(done[1].finish, 90.0);
  EXPECT_DOUBLE_EQ(kernel.makespan(), 90.0);
}

// ---------------------------------------------------- registry scenarios ---

/// A scheduling round built from a workload: fresh availability, the first
/// `n_jobs` jobs as the batch, each with its row of the workload's ETC
/// matrix (valid while `w` is).
sim::SchedulerContext context_of(const workload::Workload& w,
                                 std::size_t n_jobs, sim::Time now) {
  sim::SchedulerContext context;
  context.now = now;
  context.sites = w.sites;
  for (const sim::SiteConfig& site : w.sites) {
    context.avail.emplace_back(site.nodes, 0.0);
  }
  for (const sim::Job& job : w.jobs) {
    if (context.jobs.size() >= n_jobs) break;
    context.jobs.push_back({job.id, job.nodes, job.work, job.demand,
                            job.arrival, false, w.exec.row(job.id)});
  }
  return context;
}

TEST(EtcExecution, SynthScenariosCarryTheRawMatrix) {
  for (const char* name :
       {"synth-consistent-hihi", "synth-semi-hihi", "synth-semi-lolo",
        "synth-inconsistent-hihi", "synth-inconsistent-lolo"}) {
    SCOPED_TRACE(name);
    const auto workload =
        exp::make_workload(exp::make_scenario(name, 32), 11);
    EXPECT_TRUE(workload.exec.has_matrix());
    EXPECT_EQ(workload.exec.matrix_jobs(), 32u);
    EXPECT_EQ(workload.exec.matrix_sites(), workload.sites.size());
  }
  // The rank-1 testbeds stay on the fallback model.
  EXPECT_FALSE(
      exp::make_workload(exp::make_scenario("psa", 32), 11).exec.has_matrix());
}

TEST(EtcExecution, SchedulerAndGaConsumeRawCellsNotTheProjection) {
  // The scaled generator cells must reach sched::EtcMatrix and
  // GaProblem::exec bit-for-bit, and must NOT equal the rank-1 projection
  // for an inconsistent matrix.
  const exp::Scenario scenario =
      exp::make_scenario("synth-inconsistent-hihi", 40);
  const workload::Workload w =
      workload::synth::synth_workload(scenario.synth, 23);
  const auto cells = w.exec.matrix_cells();
  ASSERT_EQ(cells.size(), w.jobs.size() * w.sites.size());
  const auto context = context_of(w, w.jobs.size(), 0.0);

  const sched::EtcMatrix etc(context);
  const core::GaProblem problem =
      core::build_problem(context, security::RiskPolicy::risky());
  ASSERT_EQ(problem.n_jobs(), w.jobs.size());  // risky: nothing filtered

  bool any_off_projection = false;
  for (std::size_t j = 0; j < w.jobs.size(); ++j) {
    for (std::size_t s = 0; s < w.sites.size(); ++s) {
      if (w.jobs[j].nodes > w.sites[s].nodes) {
        EXPECT_TRUE(std::isinf(etc.exec(j, s)));
        continue;
      }
      const double raw = cells[j * w.sites.size() + s];
      EXPECT_EQ(etc.exec(j, s), raw);
      EXPECT_EQ(problem.exec_at(j, s), raw);
      const double projected = w.jobs[j].work / w.sites[s].speed;
      if (raw != projected) any_off_projection = true;
    }
  }
  EXPECT_TRUE(any_off_projection)
      << "inconsistent ETC collapsed to its rank-1 projection";
}

TEST(EtcExecution, RawEtcChangesHeuristicAndGaMakespans) {
  // Same jobs/sites, raw matrix vs rank-1 fallback: the realised makespans
  // must differ for an inconsistent class — under the old projection both
  // runs would have been identical.
  const exp::Scenario scenario =
      exp::make_scenario("synth-inconsistent-hihi", 48);
  const workload::Workload raw = exp::make_workload(scenario, 29);
  ASSERT_TRUE(raw.exec.has_matrix());
  workload::Workload projected = raw;
  projected.exec = sim::ExecModel{};  // strip: rank-1 fallback

  const auto run_minmin = [&](const workload::Workload& w) {
    sim::SimKernel kernel(w.sites, w.jobs, scenario.engine, w.exec);
    sched::MinMinScheduler scheduler(security::RiskPolicy::risky());
    kernel.run(scheduler);
    return kernel.makespan();
  };
  EXPECT_NE(run_minmin(raw), run_minmin(projected));

  const auto run_ga = [&](const workload::Workload& w) {
    core::StgaConfig config;
    config.ga.population = 16;
    config.ga.generations = 6;
    core::GaScheduler scheduler(config);
    sim::SimKernel kernel(w.sites, w.jobs, scenario.engine, w.exec);
    kernel.run(scheduler);
    return kernel.makespan();
  };
  EXPECT_NE(run_ga(raw), run_ga(projected));
}

}  // namespace
}  // namespace gridsched
