#include "sched/etc_matrix.hpp"
#include "sched/heuristics.hpp"
#include "sched/registry.hpp"
#include "sched/risk_filter.hpp"
#include "sched/site_tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <vector>

#include "util/rng.hpp"

namespace gridsched::sched {
namespace {

sim::BatchJob batch_job(double work, unsigned nodes = 1, double demand = 0.5,
                        bool secure_only = false) {
  sim::BatchJob job;
  job.work = work;
  job.nodes = nodes;
  job.demand = demand;
  job.secure_only = secure_only;
  return job;
}

sim::SchedulerContext make_context(std::vector<sim::SiteConfig> sites,
                                   std::vector<sim::BatchJob> jobs,
                                   sim::Time now = 0.0) {
  sim::SchedulerContext context;
  context.now = now;
  for (std::size_t s = 0; s < sites.size(); ++s) {
    sites[s].id = static_cast<sim::SiteId>(s);
    context.avail.emplace_back(sites[s].nodes, 0.0);
  }
  context.sites = std::move(sites);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    jobs[j].id = static_cast<sim::JobId>(j);
  }
  context.jobs = std::move(jobs);
  return context;
}

// ----------------------------------------------------------- EtcMatrix ---

TEST(EtcMatrix, ComputesWorkOverSpeed) {
  const auto context = make_context({{0, 1, 2.0, 1.0}, {1, 1, 4.0, 1.0}},
                                    {batch_job(100.0)});
  const EtcMatrix etc(context);  // no matrix attached -> rank-1
  EXPECT_DOUBLE_EQ(etc.exec(0, 0), 50.0);
  EXPECT_DOUBLE_EQ(etc.exec(0, 1), 25.0);
  EXPECT_EQ(etc.jobs(), 1u);
  EXPECT_EQ(etc.sites(), 2u);
}

TEST(EtcMatrix, InfeasibleWhenJobDoesNotFit) {
  const auto context = make_context({{0, 2, 1.0, 1.0}},
                                    {batch_job(10.0, 4)});
  const EtcMatrix etc(context);
  EXPECT_TRUE(std::isinf(etc.exec(0, 0)));
}

TEST(EtcMatrix, FlattenedLayoutIsRowMajor) {
  const auto context = make_context({{0, 1, 1.0, 1.0}, {1, 1, 2.0, 1.0}},
                                    {batch_job(2.0), batch_job(4.0)});
  const EtcMatrix etc(context);
  const auto& flat = etc.flattened();
  ASSERT_EQ(flat.size(), 4u);
  EXPECT_DOUBLE_EQ(flat[0], 2.0);  // job 0 site 0
  EXPECT_DOUBLE_EQ(flat[1], 1.0);  // job 0 site 1
  EXPECT_DOUBLE_EQ(flat[3], 2.0);  // job 1 site 1
}

TEST(EtcMatrix, ContextConstructorUsesTheRawExecModel) {
  auto context = make_context({{0, 2, 2.0, 1.0}, {1, 1, 4.0, 1.0}},
                              {batch_job(100.0), batch_job(50.0, 2)});
  const std::vector<double> rows = {7.0, 9.0, 11.0, 13.0};
  context.jobs[0].etc_row = &rows[0];
  context.jobs[1].etc_row = &rows[2];
  const EtcMatrix etc(context);
  EXPECT_DOUBLE_EQ(etc.exec(0, 0), 7.0);
  EXPECT_DOUBLE_EQ(etc.exec(0, 1), 9.0);
  EXPECT_DOUBLE_EQ(etc.exec(1, 0), 11.0);
  // Node fit still decides feasibility, whatever the matrix says.
  EXPECT_TRUE(std::isinf(etc.exec(1, 1)));
}

// --------------------------------------------------------- risk filter ---

TEST(RiskFilter, CombinesFitAndPolicy) {
  const auto context = make_context({{0, 1, 1.0, 0.95}, {1, 8, 1.0, 0.45}},
                                    {batch_job(10.0, 4, 0.8)});
  const auto& job = context.jobs[0];
  const security::RiskCutoff secure(security::RiskPolicy::secure(),
                                    context.lambda);
  const security::RiskCutoff risky(security::RiskPolicy::risky(),
                                   context.lambda);
  EXPECT_FALSE(admissible(context, job, 0, secure));  // does not fit
  EXPECT_FALSE(admissible(context, job, 1, secure));  // not safe
  EXPECT_TRUE(admissible(context, job, 1, risky));
}

TEST(RiskFilter, SecureOnlyOverridesRiskyPolicy) {
  const auto context =
      make_context({{0, 4, 1.0, 0.5}, {1, 4, 1.0, 0.9}},
                   {batch_job(10.0, 1, 0.8, /*secure_only=*/true)});
  const security::RiskCutoff risky(security::RiskPolicy::risky(),
                                   context.lambda);
  EXPECT_FALSE(admissible(context, context.jobs[0], 0, risky));
  EXPECT_TRUE(admissible(context, context.jobs[0], 1, risky));
}

TEST(RiskFilter, AdmissibleSitesOrdered) {
  const auto context = make_context(
      {{0, 1, 1.0, 0.9}, {1, 1, 1.0, 0.4}, {2, 1, 1.0, 0.95}},
      {batch_job(1.0, 1, 0.85)});
  const auto sites = admissible_sites(
      context, context.jobs[0],
      security::RiskCutoff(security::RiskPolicy::secure(), context.lambda));
  EXPECT_EQ(sites, (std::vector<sim::SiteId>{0, 2}));
}

// ------------------------------------- Min-Min vs Sufferage, Fig. 2 style --

// Two sites (speeds 1 and 2), three jobs (works 8, 10, 12). Min-Min packs
// the fast site greedily (makespan 12); Sufferage gives the fast site to
// the job that suffers most (makespan 11) — the paper's Fig. 2 effect.
sim::SchedulerContext fig2_context() {
  return make_context({{0, 1, 1.0, 1.0}, {1, 1, 2.0, 1.0}},
                      {batch_job(8.0), batch_job(10.0), batch_job(12.0)});
}

TEST(MinMin, PicksGloballySmallestCompletionFirst) {
  auto context = fig2_context();
  MinMinScheduler scheduler(security::RiskPolicy::secure());
  const auto assignments = scheduler.schedule(context);
  ASSERT_EQ(assignments.size(), 3u);
  EXPECT_EQ(assignments[0].job_index, 0u);
  EXPECT_EQ(assignments[0].site, 1u);
  EXPECT_EQ(assignments[1].job_index, 1u);
  EXPECT_EQ(assignments[1].site, 1u);
  EXPECT_EQ(assignments[2].job_index, 2u);
  EXPECT_EQ(assignments[2].site, 0u);
}

TEST(Sufferage, ServesTheMostSufferingJobFirst) {
  auto context = fig2_context();
  SufferageScheduler scheduler(security::RiskPolicy::secure());
  const auto assignments = scheduler.schedule(context);
  ASSERT_EQ(assignments.size(), 3u);
  EXPECT_EQ(assignments[0].job_index, 2u);  // sufferage 6 (12 - 6)
  EXPECT_EQ(assignments[0].site, 1u);
  EXPECT_EQ(assignments[1].job_index, 0u);  // then J0 -> slow site
  EXPECT_EQ(assignments[1].site, 0u);
  EXPECT_EQ(assignments[2].job_index, 1u);
  EXPECT_EQ(assignments[2].site, 1u);
}

TEST(MinMinVsSufferage, SufferageWinsOnFig2Instance) {
  // Replay both schedules against fresh availability and compare makespans.
  auto simulate = [](const std::vector<sim::Assignment>& assignments) {
    auto context = fig2_context();
    double makespan = 0.0;
    for (const auto& assignment : assignments) {
      const auto& job = context.jobs[assignment.job_index];
      const double exec = job.work / context.sites[assignment.site].speed;
      makespan = std::max(
          makespan, context.avail[assignment.site].reserve(1, exec, 0.0).end);
    }
    return makespan;
  };
  auto context = fig2_context();
  MinMinScheduler min_min(security::RiskPolicy::secure());
  SufferageScheduler sufferage(security::RiskPolicy::secure());
  EXPECT_DOUBLE_EQ(simulate(min_min.schedule(context)), 12.0);
  EXPECT_DOUBLE_EQ(simulate(sufferage.schedule(context)), 11.0);
}

TEST(MaxMin, ServesLargestJobFirst) {
  auto context = fig2_context();
  MaxMinScheduler scheduler(security::RiskPolicy::secure());
  const auto assignments = scheduler.schedule(context);
  ASSERT_EQ(assignments.size(), 3u);
  EXPECT_EQ(assignments[0].job_index, 2u);  // the 12-work job
}

// --------------------------------------------------- single-pass trio ----

TEST(Mct, AssignsInBatchOrderToBestCompletion) {
  auto context = make_context({{0, 1, 1.0, 1.0}, {1, 1, 1.0, 1.0}},
                              {batch_job(10.0), batch_job(10.0)});
  MctScheduler scheduler(security::RiskPolicy::secure());
  const auto assignments = scheduler.schedule(context);
  ASSERT_EQ(assignments.size(), 2u);
  EXPECT_EQ(assignments[0].job_index, 0u);
  EXPECT_EQ(assignments[1].job_index, 1u);
  // Second job must go to the other (still idle) site.
  EXPECT_NE(assignments[0].site, assignments[1].site);
}

TEST(Met, IgnoresQueueingAndPilesOntoFastestSite) {
  auto context = make_context({{0, 1, 1.0, 1.0}, {1, 1, 5.0, 1.0}},
                              {batch_job(10.0), batch_job(10.0),
                               batch_job(10.0)});
  MetScheduler scheduler(security::RiskPolicy::secure());
  for (const auto& assignment : scheduler.schedule(context)) {
    EXPECT_EQ(assignment.site, 1u);
  }
}

TEST(Olb, BalancesByAvailabilityOnly) {
  auto context = make_context({{0, 1, 1.0, 1.0}, {1, 1, 100.0, 1.0}},
                              {batch_job(10.0), batch_job(10.0)});
  OlbScheduler scheduler(security::RiskPolicy::secure());
  const auto assignments = scheduler.schedule(context);
  ASSERT_EQ(assignments.size(), 2u);
  // OLB spreads by idle time and ignores the huge speed difference.
  std::set<sim::SiteId> used;
  for (const auto& assignment : assignments) used.insert(assignment.site);
  EXPECT_EQ(used.size(), 2u);
}

// ------------------------------------------------------------- SiteTree ---

/// `work * SiteTree::inv_lo(speed)` must never exceed `work / speed`, and
/// inv_lo must sit strictly below the real reciprocal wherever
/// 1 / speed neither overflows nor underflows (fma rounds once, so the
/// sign of inv_lo * speed - 1 is exact).
void expect_bound_holds(double work, double speed) {
  const double inv_lo = SiteTree::inv_lo(speed);
  EXPECT_LE(work * inv_lo, work / speed) << "work " << work << " speed "
                                         << speed;
  const double reciprocal = 1.0 / speed;
  if (std::isnormal(reciprocal) && reciprocal < 0x1p1023) {
    EXPECT_LT(std::fma(inv_lo, speed, -1.0), 0.0) << "speed " << speed;
  }
}

TEST(SiteTree, InvLoNeverExceedsTheQuotient) {
  // Adversarial: powers of two (exact reciprocals), speeds one ulp apart
  // around values whose reciprocals round up, down or exactly, and work
  // from 1e-300 to 1e300 (products overflow to infinity together with the
  // quotient).
  std::vector<double> speeds;
  for (const double base :
       {1.0, 1.5, 2.0, 3.0, 0.1, 0.3, 7.0, 10.0, 1e-300, 1e300, 0x1p-1000,
        0x1p1000, std::numeric_limits<double>::min(),
        std::numeric_limits<double>::max()}) {
    speeds.push_back(base);
    speeds.push_back(std::nextafter(base, 0.0));
    speeds.push_back(std::nextafter(base, 2.0 * base));
  }
  for (int e = -1070; e <= 1020; e += 10) {
    speeds.push_back(std::ldexp(1.0, e));
  }
  std::vector<double> works = {0.0, std::numeric_limits<double>::denorm_min(),
                               std::numeric_limits<double>::max()};
  for (double work = 1e-300; work <= 1e300; work *= 10.0) {
    works.push_back(work);
    works.push_back(std::nextafter(work, 0.0));
  }
  for (int e = -1074; e <= 1023; e += 7) works.push_back(std::ldexp(1.0, e));
  for (const double speed : speeds) {
    for (const double work : works) expect_bound_holds(work, speed);
  }

  // Random: mantissas and exponents over the whole normal range, and the
  // realistic band the scenarios use.
  util::Rng rng(0x1b0d);
  for (int i = 0; i < 200000; ++i) {
    const auto speed_exp = static_cast<int>(rng.uniform_int(-1000, 1000));
    const auto work_exp = static_cast<int>(rng.uniform_int(-996, 996));
    const double speed = std::ldexp(rng.uniform(1.0, 2.0), speed_exp);
    const double work = std::ldexp(rng.uniform(1.0, 2.0), work_exp);
    expect_bound_holds(work, speed);
    expect_bound_holds(rng.uniform(1.0, 5e6), rng.uniform(0.5, 4.0));
  }
}

// ------------------------------------------------------- mode behaviour ---

TEST(Heuristics, SecureModeLeavesUnsafeJobsPending) {
  auto context = make_context({{0, 1, 1.0, 0.5}},
                              {batch_job(10.0, 1, 0.9), batch_job(5.0, 1,
                                                                  0.4)});
  MinMinScheduler scheduler(security::RiskPolicy::secure());
  const auto assignments = scheduler.schedule(context);
  ASSERT_EQ(assignments.size(), 1u);  // only the demand-0.4 job fits safely
  EXPECT_EQ(assignments[0].job_index, 1u);
}

TEST(Heuristics, NamesIncludeMode) {
  EXPECT_EQ(MinMinScheduler(security::RiskPolicy::secure()).name(),
            "Min-Min secure");
  EXPECT_EQ(SufferageScheduler(security::RiskPolicy::f_risky(0.5)).name(),
            "Sufferage f-risky");
  EXPECT_EQ(MctScheduler(security::RiskPolicy::risky()).name(), "MCT risky");
}

/// Property suite: on random instances every heuristic returns a valid
/// partial assignment (unique jobs, admissible + fitting sites), and the
/// f-risky bound holds for every placement at the context's lambda.
// (heuristic name, f, lambda)
using HeuristicParam = std::tuple<std::string, double, double>;
class HeuristicProperty : public ::testing::TestWithParam<HeuristicParam> {};

TEST_P(HeuristicProperty, AssignmentsAreValidAndRiskBounded) {
  const auto& [name, f, lambda] = GetParam();
  util::Rng rng(std::hash<std::string>{}(name) + static_cast<std::uint64_t>(f *
      100));
  for (int instance = 0; instance < 20; ++instance) {
    std::vector<sim::SiteConfig> sites;
    const std::size_t n_sites = 2 + rng.index(6);
    for (std::size_t s = 0; s < n_sites; ++s) {
      sites.push_back({static_cast<sim::SiteId>(s),
                       static_cast<unsigned>(1 + rng.index(8)),
                       rng.uniform(0.5, 4.0), rng.uniform(0.4, 1.0)});
    }
    std::vector<sim::BatchJob> jobs;
    const std::size_t n_jobs = 1 + rng.index(12);
    for (std::size_t j = 0; j < n_jobs; ++j) {
      jobs.push_back(batch_job(rng.uniform(1.0, 50.0),
                               static_cast<unsigned>(1 + rng.index(4)),
                               rng.uniform(0.6, 0.9), rng.bernoulli(0.1)));
    }
    auto context = make_context(sites, jobs, rng.uniform(0.0, 100.0));
    context.lambda = lambda;

    const security::RiskPolicy policy = security::RiskPolicy::f_risky(f);
    const auto scheduler = make_heuristic(name, policy);
    const auto assignments = scheduler->schedule(context);

    std::set<std::size_t> seen;
    for (const auto& assignment : assignments) {
      ASSERT_LT(assignment.job_index, context.jobs.size());
      ASSERT_LT(assignment.site, context.sites.size());
      ASSERT_TRUE(seen.insert(assignment.job_index).second)
          << name << " duplicated a job";
      const auto& job = context.jobs[assignment.job_index];
      const auto& site = context.sites[assignment.site];
      ASSERT_LE(job.nodes, site.nodes);
      ASSERT_TRUE(admissible(context, job, assignment.site,
                             security::RiskCutoff(policy, lambda)));
      if (!job.secure_only) {
        ASSERT_LE(
            security::failure_probability(job.demand, site.security, lambda),
            f + 1e-12);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllHeuristicsAndRiskLevels, HeuristicProperty,
    ::testing::Combine(::testing::Values("min-min", "max-min", "sufferage",
                                         "mct", "met", "olb"),
                       ::testing::Values(0.0, 0.3, 0.5, 1.0),
                       ::testing::Values(1.5, security::kDefaultLambda, 6.0)));

// ------------------------------------------------------------- registry ---

TEST(Registry, ListsAllHeuristics) {
  const auto names = heuristic_names();
  EXPECT_EQ(names.size(), 6u);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  EXPECT_NE(std::find(names.begin(), names.end(), "min-min"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "sufferage"), names.end());
}

TEST(Registry, UnknownNameThrows) {
  EXPECT_THROW(make_heuristic("annealing", security::RiskPolicy::secure()),
               std::invalid_argument);
}

TEST(Registry, FactoryProducesWorkingScheduler) {
  auto scheduler = make_heuristic("sufferage", security::RiskPolicy::risky());
  auto context = fig2_context();
  EXPECT_EQ(scheduler->schedule(context).size(), 3u);
}

}  // namespace
}  // namespace gridsched::sched
