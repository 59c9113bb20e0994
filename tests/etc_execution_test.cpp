// Raw-ETC execution model, end to end: sim::ExecModel validation, the
// MaterializedStream that carries a matrix's rows to the kernel, a
// hand-checked small instance driven through the engine, and the golden
// property that the synth-{semi,inconsistent}-* scenarios now run the
// engine / heuristics / GA on the raw generated matrix (no fit_work_speed
// projection anywhere in the execution path).
#include "sim/exec_model.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/ga_problem.hpp"
#include "core/ga_scheduler.hpp"
#include "exp/scenario_registry.hpp"
#include "job_recorder.hpp"
#include "sched/etc_matrix.hpp"
#include "sched/heuristics.hpp"
#include "sim/kernel.hpp"
#include "workload/stream.hpp"
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

// --------------------------------------------------- MaterializedStream ---

/// `n` valid jobs of distinct work, for stream and kernel wiring checks.
std::vector<sim::Job> unit_jobs(std::size_t n) {
  std::vector<sim::Job> jobs(n);
  for (std::size_t j = 0; j < n; ++j) {
    jobs[j].work = 10.0 + static_cast<double>(j);
    jobs[j].nodes = 1;
    jobs[j].demand = 0.5;
  }
  return jobs;
}

TEST(MaterializedStream, YieldsEachJobsMatrixRowBitForBit) {
  std::vector<double> cells;
  for (int k = 0; k < 12; ++k) cells.push_back(0.1 + 1.0 / (k + 3.0));
  const sim::ExecModel model(4, 3, cells);
  workload::MaterializedStream stream(unit_jobs(4), model);
  EXPECT_EQ(stream.size(), 4u);
  ASSERT_EQ(stream.row_sites(), 3u);
  sim::Job job;
  for (std::size_t j = 0; j < 4; ++j) {
    ASSERT_TRUE(stream.next(job));
    EXPECT_EQ(job.work, 10.0 + static_cast<double>(j));
    const std::span<const double> row = stream.row();
    ASSERT_EQ(row.size(), 3u);
    for (std::size_t s = 0; s < 3; ++s) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(row[s]),
                std::bit_cast<std::uint64_t>(cells[j * 3 + s]))
          << "job " << j << " site " << s;
    }
  }
  EXPECT_FALSE(stream.next(job));

  // Without a matrix the stream yields no rows: the rank-1 law.
  workload::MaterializedStream rank_one(unit_jobs(2));
  EXPECT_EQ(rank_one.row_sites(), 0u);
  ASSERT_TRUE(rank_one.next(job));
  EXPECT_TRUE(rank_one.row().empty());
}

// Rows are keyed by stream position, so the matrix must hold exactly one
// row per job (the stream checks) and one cell per site (the kernel checks
// the stream's row width); either mismatch would read another job's or
// site's cell.
TEST(MaterializedStream, MatrixShapeIsCheckedByStreamAndKernel) {
  const sim::ExecModel model(4, 2, std::vector<double>(8, 1.0));
  EXPECT_NO_THROW(workload::MaterializedStream(unit_jobs(4), model));
  try {
    workload::MaterializedStream(unit_jobs(3),
                                 sim::ExecModel(2, 2, {1, 2, 3, 4}));
    FAIL() << "a 2-row matrix under 3 jobs was accepted";
  } catch (const std::invalid_argument& error) {
    const std::string text = error.what();
    EXPECT_NE(text.find("2 row(s)"), std::string::npos) << text;
    EXPECT_NE(text.find("3 job(s)"), std::string::npos) << text;
  }
  EXPECT_THROW(workload::MaterializedStream(unit_jobs(5), model),
               std::invalid_argument);
  // The rank-1 fallback fits any job count.
  EXPECT_NO_THROW(workload::MaterializedStream(unit_jobs(100), {}));

  const auto kernel_on = [&](std::vector<sim::SiteConfig> sites) {
    return sim::SimKernel(
        std::move(sites),
        std::make_unique<workload::MaterializedStream>(unit_jobs(4), model));
  };
  EXPECT_NO_THROW(kernel_on({{0, 1, 1.0, 1.0}, {1, 1, 1.0, 1.0}}));
  EXPECT_THROW(kernel_on({{0, 1, 1.0, 1.0}}), std::invalid_argument);
  EXPECT_THROW(
      kernel_on({{0, 1, 1.0, 1.0}, {1, 1, 1.0, 1.0}, {2, 1, 1.0, 1.0}}),
      std::invalid_argument);
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
  sim::SimKernel kernel(
      {{0, 1, 1.0, 1.0}, {1, 1, 1.0, 1.0}},
      std::make_unique<workload::MaterializedStream>(jobs, etc), config);
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
    sim::SimKernel kernel(
        w.sites, std::make_unique<workload::MaterializedStream>(w.jobs, w.exec),
        scenario.engine);
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
    sim::SimKernel kernel(
        w.sites, std::make_unique<workload::MaterializedStream>(w.jobs, w.exec),
        scenario.engine);
    kernel.run(scheduler);
    return kernel.makespan();
  };
  EXPECT_NE(run_ga(raw), run_ga(projected));
}

}  // namespace
}  // namespace gridsched
